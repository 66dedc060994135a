module Rng = Dsim.Rng

let check_nf ~n ~f =
  if n < 1 || n > Pset.max_universe then invalid_arg "Detector_gen: bad n";
  if f < 0 || f >= n then invalid_arg "Detector_gen: need 0 ≤ f < n"

let random_set_of_max_size rng pool limit =
  let size =
    Rng.int_in_range rng ~min:0 ~max:(Int.min limit (Pset.cardinal pool))
  in
  Pset.random_subset_of_size rng pool size

(* A generator is built once per trial, so each name is formatted on the
   first build with its parameter value and kept, not once per build.
   Two domains may both fill an entry; they write equal strings. *)
let names fmt =
  let table = Array.make 32 "" in
  fun v ->
    if v < 0 || v >= Array.length table then fmt v
    else begin
      if String.length table.(v) = 0 then table.(v) <- fmt v;
      table.(v)
    end

(* Every generator below fills one output array, allocated when it is
   built, on every query: a query's output is only valid until the next
   query (see Detector.next), and every caller either consumes it first
   or copies it. *)

let omission_name = names (Printf.sprintf "gen-omission(f=%d)")

let omission rng ~n ~f =
  check_nf ~n ~f;
  let faulty_senders =
    let size = Rng.int_in_range rng ~min:0 ~max:f in
    Pset.random_subset_of_size rng (Pset.full n) size
  in
  let out = Array.make n Pset.empty in
  Detector.make ~name:(omission_name f) (fun _h ->
      for i = 0 to n - 1 do
        out.(i) <- Pset.random_subset rng (Pset.remove i faulty_senders)
      done;
      out)

let crash_name = names (Printf.sprintf "gen-crash(f=%d)")

let crash rng ~n ~f =
  check_nf ~n ~f;
  let crashed = ref Pset.empty and out = Array.make n Pset.empty in
  (* Processes crashing in the round being built: receivers in the partial
     set miss them this round, everyone misses them afterwards. *)
  Detector.make ~name:(crash_name f) (fun _h ->
      let newly =
        Pset.filter
          (fun _ ->
            Pset.cardinal !crashed < f
            && Rng.float rng 1.0 < 0.3)
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
      for i = 0 to n - 1 do
        let missed_new = Pset.random_subset rng newly in
        out.(i) <- Pset.remove i (Pset.union previously missed_new)
      done;
      out)

let async_name = names (Printf.sprintf "gen-async(f=%d)")

let async rng ~n ~f =
  check_nf ~n ~f;
  let full = Pset.full n in
  let out = Array.make n Pset.empty in
  Detector.make ~name:(async_name f) (fun _h ->
      for i = 0 to n - 1 do
        out.(i) <- random_set_of_max_size rng full f
      done;
      out)

let async_mixed_name =
  let by_f = Array.init 32 (fun f -> names (Printf.sprintf "gen-async-mixed(f=%d,t=%d)" f)) in
  fun f t ->
    if f >= 0 && f < Array.length by_f then by_f.(f) t
    else Printf.sprintf "gen-async-mixed(f=%d,t=%d)" f t

let async_mixed rng ~n ~f ~t =
  check_nf ~n ~f;
  if t < f || t >= n then invalid_arg "Detector_gen.async_mixed: need f ≤ t < n";
  let full = Pset.full n and out = Array.make n Pset.empty in
  Detector.make ~name:(async_mixed_name f t) (fun _h ->
      let q_size = Rng.int_in_range rng ~min:0 ~max:t in
      let q = Pset.random_subset_of_size rng full q_size in
      for i = 0 to n - 1 do
        let limit = if Pset.mem i q then t else f in
        out.(i) <- random_set_of_max_size rng full limit
      done;
      out)

let shm_name = names (Printf.sprintf "gen-shm(f=%d)")

let shared_memory rng ~n ~f =
  check_nf ~n ~f;
  let full = Pset.full n and out = Array.make n Pset.empty in
  Detector.make ~name:(shm_name f) (fun _h ->
      let winner = Rng.int rng n in
      let pool = Pset.remove winner full in
      for i = 0 to n - 1 do
        out.(i) <- random_set_of_max_size rng pool f
      done;
      out)

let iis_name = names (Printf.sprintf "gen-iis(f=%d)")

let iis rng ~n ~f =
  check_nf ~n ~f;
  let full = Pset.full n in
  let order = Array.make n 0 and block_of = Array.make n 0 in
  let out = Array.make n Pset.empty in
  Detector.make ~name:(iis_name f) (fun _h ->
      for p = 0 to n - 1 do
        order.(p) <- p
      done;
      Rng.shuffle_in_place rng order;
      (* Ordered partition: block 1 has at least n − f members so nobody
         misses more than f; a process sees its own block and all earlier
         ones. *)
      let first_block = Rng.int_in_range rng ~min:(n - f) ~max:n in
      let block = ref 0 in
      for position = 0 to n - 1 do
        if position >= first_block && (position = first_block || Rng.bool rng)
        then incr block;
        block_of.(order.(position)) <- !block
      done;
      for i = 0 to n - 1 do
        out.(i) <- Pset.filter (fun j -> block_of.(j) > block_of.(i)) full
      done;
      out)

let kset_name = names (Printf.sprintf "gen-kset(k=%d)")

let k_set rng ~n ~k =
  if n < 1 || n > Pset.max_universe then invalid_arg "Detector_gen.k_set: bad n";
  if k < 1 || k > n then invalid_arg "Detector_gen.k_set: need 1 ≤ k ≤ n";
  let full = Pset.full n and out = Array.make n Pset.empty in
  Detector.make ~name:(kset_name k) (fun _h ->
      let u_size = Rng.int_in_range rng ~min:0 ~max:(k - 1) in
      let uncertainty = Pset.random_subset_of_size rng full u_size in
      let common_pool = Pset.diff full uncertainty in
      (* Keep every D(i) a proper subset of S. *)
      let common_limit = Int.max 0 (n - u_size - 1) in
      let common = random_set_of_max_size rng common_pool common_limit in
      for i = 0 to n - 1 do
        out.(i) <- Pset.union common (Pset.random_subset rng uncertainty)
      done;
      out)

let antisym_name = names (Printf.sprintf "gen-antisym(f=%d)")

let antisymmetric rng ~n ~f =
  check_nf ~n ~f;
  (* Every ordered pair, in the order each query's shuffle starts from. *)
  let all_pairs =
    let pairs = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if i <> j then pairs := (i, j) :: !pairs
      done
    done;
    Array.of_list !pairs
  in
  let pairs = Array.copy all_pairs and sets = Array.make n Pset.empty in
  Detector.make ~name:(antisym_name f) (fun _h ->
      Array.fill sets 0 n Pset.empty;
      Array.blit all_pairs 0 pairs 0 (Array.length pairs);
      (* Visit ordered pairs in random order; orient at most one miss per
         unordered pair, respecting the per-process budget. *)
      Rng.shuffle_in_place rng pairs;
      for k = 0 to Array.length pairs - 1 do
        let i, j = pairs.(k) in
        if
          Rng.bool rng
          && Pset.cardinal sets.(i) < f
          && (not (Pset.mem j sets.(i)))
          && not (Pset.mem i sets.(j))
        then sets.(i) <- Pset.add j sets.(i)
      done;
      sets)

let identical rng ~n =
  if n < 1 || n > Pset.max_universe then invalid_arg "Detector_gen.identical: bad n";
  let full = Pset.full n and out = Array.make n Pset.empty in
  Detector.make ~name:"gen-identical" (fun _h ->
      let size = Rng.int_in_range rng ~min:0 ~max:(n - 1) in
      Array.fill out 0 n (Pset.random_subset_of_size rng full size);
      out)

let detector_s rng ~n =
  if n < 1 || n > Pset.max_universe then invalid_arg "Detector_gen.detector_s: bad n";
  let immortal = Rng.int rng n in
  let pool = Pset.remove immortal (Pset.full n) and out = Array.make n Pset.empty in
  Detector.make ~name:"gen-detector-S" (fun _h ->
      for i = 0 to n - 1 do
        out.(i) <- Pset.random_subset rng pool
      done;
      out)
