module Rng = Dsim.Rng

let check_nf ~n ~f =
  if n < 1 || n > Pset.max_universe then invalid_arg "Detector_gen: bad n";
  if f < 0 || f >= n then invalid_arg "Detector_gen: need 0 ≤ f < n"

let random_set_of_max_size rng pool limit =
  let size = Rng.int_in_range rng ~min:0 ~max:(min limit (Pset.cardinal pool)) in
  Pset.random_subset_of_size rng pool size

let omission rng ~n ~f =
  check_nf ~n ~f;
  let faulty_senders =
    let size = Rng.int_in_range rng ~min:0 ~max:f in
    Pset.random_subset_of_size rng (Pset.full n) size
  in
  Detector.make ~name:(Printf.sprintf "gen-omission(f=%d)" f) (fun _h ->
      Array.init n (fun i ->
          Pset.random_subset rng (Pset.remove i faulty_senders)))

let crash ?(crash_probability = 0.3) rng ~n ~f =
  check_nf ~n ~f;
  let crashed = ref Pset.empty in
  (* Processes crashing in the round being built: receivers in the partial
     set miss them this round, everyone misses them afterwards. *)
  Detector.make ~name:(Printf.sprintf "gen-crash(f=%d)" f) (fun _h ->
      let newly =
        Pset.filter
          (fun _ ->
            Pset.cardinal !crashed < f
            && Rng.float rng 1.0 < crash_probability)
          (Pset.diff (Pset.full n) !crashed)
      in
      (* Respect the global bound even if the filter picked too many. *)
      let newly =
        let excess = Pset.cardinal !crashed + Pset.cardinal newly - f in
        if excess <= 0 then newly
        else
          Pset.random_subset_of_size rng newly (Pset.cardinal newly - excess)
      in
      let previously = !crashed in
      crashed := Pset.union !crashed newly;
      Array.init n (fun i ->
          let missed_new = Pset.random_subset rng newly in
          Pset.remove i (Pset.union previously missed_new)))

(* A generator is built once per trial, so its name is formatted once
   per budget, not once per build. *)
let async_name =
  let names = Array.init 32 (Printf.sprintf "gen-async(f=%d)") in
  fun f ->
    if f < Array.length names then names.(f)
    else Printf.sprintf "gen-async(f=%d)" f

let async rng ~n ~f =
  check_nf ~n ~f;
  let full = Pset.full n in
  (* Output scratch reused across rounds, as in [k_set] below. *)
  let out = Array.make n Pset.empty in
  Detector.make ~name:(async_name f) (fun _h ->
      for i = 0 to n - 1 do
        out.(i) <- random_set_of_max_size rng full f
      done;
      out)

let async_mixed rng ~n ~f ~t =
  check_nf ~n ~f;
  if t < f || t >= n then invalid_arg "Detector_gen.async_mixed: need f ≤ t < n";
  Detector.make ~name:(Printf.sprintf "gen-async-mixed(f=%d,t=%d)" f t)
    (fun _h ->
      let q_size = Rng.int_in_range rng ~min:0 ~max:t in
      let q = Pset.random_subset_of_size rng (Pset.full n) q_size in
      Array.init n (fun i ->
          let limit = if Pset.mem i q then t else f in
          random_set_of_max_size rng (Pset.full n) limit))

let shared_memory rng ~n ~f =
  check_nf ~n ~f;
  Detector.make ~name:(Printf.sprintf "gen-shm(f=%d)" f) (fun _h ->
      let winner = Rng.int rng n in
      let pool = Pset.remove winner (Pset.full n) in
      Array.init n (fun _ -> random_set_of_max_size rng pool f))

let iis rng ~n ~f =
  check_nf ~n ~f;
  Detector.make ~name:(Printf.sprintf "gen-iis(f=%d)" f) (fun _h ->
      let order = Array.init n Fun.id in
      Rng.shuffle_in_place rng order;
      (* Ordered partition: block 1 has at least n − f members so nobody
         misses more than f; a process sees its own block and all earlier
         ones. *)
      let first_block = Rng.int_in_range rng ~min:(n - f) ~max:n in
      let block_of = Array.make n 0 in
      let block = ref 0 in
      Array.iteri
        (fun position p ->
          if position >= first_block && (position = first_block || Rng.bool rng)
          then incr block;
          block_of.(p) <- !block)
        order;
      Array.init n (fun i ->
          Pset.filter (fun j -> block_of.(j) > block_of.(i)) (Pset.full n)))

let k_set rng ~n ~k =
  if n < 1 || n > Pset.max_universe then invalid_arg "Detector_gen.k_set: bad n";
  if k < 1 || k > n then invalid_arg "Detector_gen.k_set: need 1 ≤ k ≤ n";
  let full = Pset.full n in
  (* Output scratch, reused across rounds: a query's output is only valid
     until the next query (see Detector.next), so nothing retains it. *)
  let out = Array.make n Pset.empty in
  Detector.make ~name:(Printf.sprintf "gen-kset(k=%d)" k) (fun _h ->
      let u_size = Rng.int_in_range rng ~min:0 ~max:(k - 1) in
      let uncertainty = Pset.random_subset_of_size rng full u_size in
      let common_pool = Pset.diff full uncertainty in
      (* Keep every D(i) a proper subset of S. *)
      let common_limit = max 0 (n - u_size - 1) in
      let common = random_set_of_max_size rng common_pool common_limit in
      for i = 0 to n - 1 do
        out.(i) <- Pset.union common (Pset.random_subset rng uncertainty)
      done;
      out)

let antisymmetric rng ~n ~f =
  check_nf ~n ~f;
  Detector.make ~name:(Printf.sprintf "gen-antisym(f=%d)" f) (fun _h ->
      let sets = Array.make n Pset.empty in
      (* Visit ordered pairs in random order; orient at most one miss per
         unordered pair, respecting the per-process budget. *)
      let pairs = ref [] in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if i <> j then pairs := (i, j) :: !pairs
        done
      done;
      let pairs = Array.of_list !pairs in
      Rng.shuffle_in_place rng pairs;
      Array.iter
        (fun (i, j) ->
          if
            Rng.bool rng
            && Pset.cardinal sets.(i) < f
            && (not (Pset.mem j sets.(i)))
            && not (Pset.mem i sets.(j))
          then sets.(i) <- Pset.add j sets.(i))
        pairs;
      sets)

let identical rng ~n =
  if n < 1 || n > Pset.max_universe then invalid_arg "Detector_gen.identical: bad n";
  Detector.make ~name:"gen-identical" (fun _h ->
      let size = Rng.int_in_range rng ~min:0 ~max:(n - 1) in
      let d = Pset.random_subset_of_size rng (Pset.full n) size in
      Array.make n d)

let detector_s rng ~n =
  if n < 1 || n > Pset.max_universe then invalid_arg "Detector_gen.detector_s: bad n";
  let immortal = Rng.int rng n in
  Detector.make ~name:"gen-detector-S" (fun _h ->
      let pool = Pset.remove immortal (Pset.full n) in
      Array.init n (fun _ -> Pset.random_subset rng pool))
