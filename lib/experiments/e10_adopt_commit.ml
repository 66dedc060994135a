(* E10 — Section 4.2: the wait-free adopt-commit protocol, register and
   RRFD versions, under random interleavings / snapshot adversaries. *)

let run ~seed ?(trials = 500) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  let work = ref [] in
  List.iter
    (fun n ->
      let reg_bad = ref 0 and reg_commits = ref 0 in
      let rrfd_bad = ref 0 and rrfd_commits = ref 0 in
      let conv_bad = ref 0 in
      for _ = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let inputs = Tasks.Inputs.binary trial_rng n in
        (* register version *)
        let r =
          Shm.Adopt_commit_shm.run ~inputs
            ~schedule:(Shm.Exec.Random (Dsim.Rng.split trial_rng))
        in
        let outcomes = Array.map Option.some r.Shm.Adopt_commit_shm.outcomes in
        if Rrfd.Adopt_commit.check_outcomes ~inputs outcomes <> None then
          incr reg_bad;
        Array.iter
          (fun o -> if Rrfd.Adopt_commit.is_commit o then incr reg_commits)
          r.Shm.Adopt_commit_shm.outcomes;
        (* RRFD version under a snapshot adversary, via the catalog (whose
           adopt-commit entry packs outcomes as ints — decode to judge). *)
        let ex =
          Protocols.Catalog.run_engine
            (Protocols.Catalog.find_exn "adopt-commit")
            ~inputs
            ~check:(Rrfd.Predicate.snapshot ~f:(n - 1))
            ~n ~f:(n - 1)
            ~detector:(Rrfd.Detector_gen.iis (Dsim.Rng.split trial_rng) ~n ~f:(n - 1))
            ()
        in
        let rrfd_outcomes =
          Array.map
            (Option.map Rrfd.Adopt_commit.decode)
            ex.Rrfd.Substrate.decisions
        in
        if Rrfd.Adopt_commit.check_outcomes ~inputs rrfd_outcomes <> None then
          incr rrfd_bad;
        Array.iter
          (fun o ->
            match o with
            | Some o when Rrfd.Adopt_commit.is_commit o -> incr rrfd_commits
            | Some _ | None -> ())
          rrfd_outcomes;
        work := ex.Rrfd.Substrate.counters :: !work;
        (* convergence on identical inputs *)
        let same = Tasks.Inputs.constant n 7 in
        let rc =
          Shm.Adopt_commit_shm.run ~inputs:same
            ~schedule:(Shm.Exec.Random (Dsim.Rng.split trial_rng))
        in
        if
          not
            (Array.for_all
               (function Rrfd.Adopt_commit.Commit 7 -> true | _ -> false)
               rc.Shm.Adopt_commit_shm.outcomes)
        then incr conv_bad
      done;
      let pct count = 100.0 *. float_of_int count /. float_of_int (trials * n) in
      rows :=
        [
          Table.cell_int n;
          Table.cell_int trials;
          Table.cell_int !reg_bad;
          Table.cell_int !rrfd_bad;
          Table.cell_int !conv_bad;
          Table.cell_float (pct !reg_commits);
          Table.cell_float (pct !rrfd_commits);
          Table.cell_bool (!reg_bad = 0 && !rrfd_bad = 0 && !conv_bad = 0);
        ]
        :: !rows)
    [ 2; 3; 5; 8; 12 ];
  {
    Table.id = "E10";
    title = "wait-free adopt-commit (Sec. 4.2)";
    claim =
      "Sec. 4.2: two register rounds give adopt-commit — identical inputs \
       commit everywhere, and a committed value is universally carried — \
       under every interleaving";
    header =
      [
        "n"; "trials"; "reg-viol"; "rrfd-viol"; "conv-viol"; "reg-commit%";
        "rrfd-commit%"; "ok";
      ];
    rows = List.rev !rows;
    notes = [ "inputs are random bits; commit% is per-process over all trials" ];
    counters = Table.counter_stats (Array.of_list (List.rev !work));
  }
