(* E7 — Corollary 3.2: k-set agreement is solvable in an asynchronous
   (snapshot) system with at most k − 1 failures, because the item-5 RRFD
   with f = k − 1 is a submodel of the k-set detector. *)

let run ~seed ?(trials = 400) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  let work = ref [] in
  List.iter
    (fun (n, k) ->
      let max_distinct = ref 0 and failures = ref 0 in
      for _ = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let inputs = Tasks.Inputs.distinct n in
        (* The adversary: genuine snapshot rounds with at most k−1 misses. *)
        let detector = Rrfd.Detector_gen.iis trial_rng ~n ~f:(k - 1) in
        let ex =
          Protocols.Catalog.run_engine
            (Protocols.Catalog.find_exn "kset-snapshot")
            ~inputs
            ~check:(Rrfd.Predicate.snapshot ~f:(k - 1))
            ~n ~f:(k - 1) ~detector ()
        in
        let distinct =
          Tasks.Agreement.distinct_decisions
            ~decisions:ex.Rrfd.Substrate.decisions
        in
        max_distinct := max !max_distinct distinct;
        if
          Tasks.Agreement.check ~k ~inputs ex.Rrfd.Substrate.decisions <> None
        then incr failures;
        work := ex.Rrfd.Substrate.counters :: !work
      done;
      rows :=
        [
          Table.cell_int n;
          Table.cell_int k;
          Table.cell_int (k - 1);
          Table.cell_int trials;
          Table.cell_int !max_distinct;
          Table.cell_int !failures;
          Table.cell_bool (!failures = 0 && !max_distinct <= k);
        ]
        :: !rows)
    [ (4, 2); (6, 2); (8, 3); (12, 4); (16, 6) ];
  {
    Table.id = "E7";
    title = "k-set agreement with k−1 failures (Corollary 3.2)";
    claim =
      "Cor 3.2 (Chaudhuri): the snapshot RRFD with f = k−1 implies the \
       k-set detector, so the one-round algorithm solves k-set agreement \
       in an asynchronous system with at most k−1 crashes";
    header = [ "n"; "k"; "f=k−1"; "trials"; "max-distinct"; "task-fails"; "ok" ];
    rows = List.rev !rows;
    notes = [];
    counters = Table.counter_stats (Array.of_list (List.rev !work));
  }
