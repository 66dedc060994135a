module Pset = Rrfd.Pset

type result = { views : Rrfd.Pset.t array; steps : int }

(* Specialized engine: the textbook algorithm (descend from level n,
   write the level, scan, stop once at least [level] processes are at
   or below it) unrolled into an explicit per-process state machine
   driven one register operation per scheduler step — no fibers, no
   continuation capture, no option boxing.  The operation sequence of
   every process and the scheduler's RNG draw sequence are identical to
   the fiber-executor reference in the test suite (one draw below the
   ready-count per step, ascending pick), so seeded runs produce
   bit-identical views and step counts; the differential test enforces
   this.  Registers are three flat arrays (seq 0 = never written); views
   and embedded snapshots are int arrays with -1 for "not seen". *)

(* Per-process control state.  [phase]: 0 = scan embedded in update,
   1 = read own seq, 2 = write own register, 3 = post-update scan,
   4 = finished. *)
type pstate = {
  mutable level : int;
  mutable phase : int;
  mutable new_seq : int;
  mutable embedded : int array;
  (* double-collect machine: col 0 reads seqs only, col 1 reads cells *)
  mutable col : int;
  mutable q : int;
  c1seq : int array;
  c2seq : int array;
  c2val : int array;
  c2emb : int array array;
  moved : int array;
}

let run_once ~n ~schedule =
  if n < 1 || n > Pset.max_universe then invalid_arg "Immediate_snapshot: bad n";
  let views = Array.make n Pset.empty in
  let no_view : int array = [||] in
  (* The shared SWMR memory: seq = 0 means never written. *)
  let mem_seq = Array.make n 0 in
  let mem_val = Array.make n 0 in
  let mem_emb = Array.make n no_view in
  let procs =
    Array.init n (fun _ ->
        {
          level = n;
          phase = 0;
          new_seq = 0;
          embedded = no_view;
          col = 0;
          q = 0;
          c1seq = Array.make n 0;
          c2seq = Array.make n 0;
          c2val = Array.make n 0;
          c2emb = Array.make n no_view;
          moved = Array.make n 0;
        })
  in
  let start_scan st =
    st.col <- 0;
    st.q <- 0;
    Array.fill st.moved 0 n 0
  in
  Array.iter start_scan procs;
  let nready = ref n in
  let steps = ref 0 in
  (* A completed scan delivered [result]; route it per the current phase. *)
  let scan_done p st result =
    if st.phase = 0 then begin
      st.embedded <- result;
      st.phase <- 1
    end
    else begin
      (* Post-update scan: processes at or below our level form the view. *)
      let at_or_below = ref Pset.empty in
      for q = 0 to n - 1 do
        let lq = result.(q) in
        if lq >= 0 && lq <= st.level then at_or_below := Pset.add q !at_or_below
      done;
      if Pset.cardinal !at_or_below >= st.level then begin
        views.(p) <- !at_or_below;
        st.phase <- 4;
        decr nready
      end
      else begin
        st.level <- st.level - 1;
        st.phase <- 0;
        start_scan st
      end
    end
  in
  let finish_attempt p st =
    let clean = ref true in
    for q = 0 to n - 1 do
      if Array.unsafe_get st.c1seq q <> Array.unsafe_get st.c2seq q then begin
        clean := false;
        Array.unsafe_set st.moved q (Array.unsafe_get st.moved q + 1)
      end
    done;
    if !clean then begin
      let result = Array.make n (-1) in
      for q = 0 to n - 1 do
        if st.c2seq.(q) <> 0 then result.(q) <- st.c2val.(q)
      done;
      scan_done p st result
    end
    else begin
      (* A register seen moving twice completed a whole update — and hence
         a whole embedded scan — inside our interval: borrow it. *)
      let borrowed = ref no_view in
      let q = ref 0 in
      while !borrowed == no_view && !q < n do
        if st.moved.(!q) >= 2 && st.c2seq.(!q) <> 0 then
          borrowed := st.c2emb.(!q);
        incr q
      done;
      if !borrowed != no_view then scan_done p st (Array.copy !borrowed)
      else begin
        st.col <- 0;
        st.q <- 0
      end
    end
  in
  (* Execute one register operation of process [p] and advance its
     machine to the next one — the step granularity of the reference. *)
  let exec_step p =
    incr steps;
    let st = procs.(p) in
    match st.phase with
    | 0 | 3 ->
      (* q < n by construction; unchecked accesses keep the per-read cost
         at a handful of loads and stores. *)
      let q = st.q in
      if st.col = 0 then begin
        Array.unsafe_set st.c1seq q (Array.unsafe_get mem_seq q);
        st.q <- q + 1;
        if st.q = n then begin
          st.col <- 1;
          st.q <- 0
        end
      end
      else begin
        Array.unsafe_set st.c2seq q (Array.unsafe_get mem_seq q);
        Array.unsafe_set st.c2val q (Array.unsafe_get mem_val q);
        Array.unsafe_set st.c2emb q (Array.unsafe_get mem_emb q);
        st.q <- q + 1;
        if st.q = n then finish_attempt p st
      end
    | 1 ->
      st.new_seq <- mem_seq.(p) + 1;
      st.phase <- 2
    | 2 ->
      mem_seq.(p) <- st.new_seq;
      mem_val.(p) <- st.level;
      mem_emb.(p) <- st.embedded;
      st.phase <- 3;
      start_scan st
    | _ -> assert false
  in
  let ready p = procs.(p).phase <> 4 in
  (match schedule with
  | Exec.Random rng ->
    (* Ready processes kept sorted ascending in a compact array, so the
       idx-th ready pick — the element the reference scheduler's
       Rng.choose takes from its ascending ready list — is O(1); removal
       on completion shifts left (n removals total). *)
    let ready_arr = Array.init n Fun.id in
    while !nready > 0 do
      let cnt = !nready in
      let idx = Dsim.Rng.int rng cnt in
      let p = Array.unsafe_get ready_arr idx in
      exec_step p;
      if (Array.unsafe_get procs p).phase = 4 then
        for i = idx to cnt - 2 do
          Array.unsafe_set ready_arr i (Array.unsafe_get ready_arr (i + 1))
        done
    done
  | Exec.Round_robin | Exec.Fixed _ ->
    let rec drive ~rr_next ~script =
      if !nready = 0 then ()
      else begin
        let pick_round_robin () =
          let rec find i =
            let candidate = (rr_next + i) mod n in
            if ready candidate then candidate else find (i + 1)
          in
          find 0
        in
        let proc, script =
          match (schedule, script) with
          | Exec.Round_robin, _ -> (pick_round_robin (), script)
          | Exec.Random _, _ -> assert false
          | Exec.Fixed _, p :: rest when ready p -> (p, rest)
          | Exec.Fixed _, _ :: rest -> (pick_round_robin (), rest)
          | Exec.Fixed _, [] -> (pick_round_robin (), [])
        in
        exec_step proc;
        drive ~rr_next:((proc + 1) mod n) ~script
      end
    in
    let script = match schedule with Exec.Fixed s -> s | _ -> [] in
    drive ~rr_next:0 ~script);
  { views; steps = !steps }

let check_views views =
  let n = Array.length views in
  let violation = ref None in
  let report fmt = Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt in
  for i = 0 to n - 1 do
    if not (Pset.mem i views.(i)) then report "p%d missing from its own view" i
  done;
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if
        not (Pset.subset views.(i) views.(j) || Pset.subset views.(j) views.(i))
      then report "views of p%d and p%d are incomparable" i j
    done
  done;
  for i = 0 to n - 1 do
    Pset.iter
      (fun j ->
        if not (Pset.subset views.(j) views.(i)) then
          report "immediacy broken: p%d ∈ view of p%d but V_%d ⊄ V_%d" j i j i)
      views.(i)
  done;
  !violation

let to_fault_sets views =
  let n = Array.length views in
  Array.map (fun v -> Pset.diff (Pset.full n) v) views
