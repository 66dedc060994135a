(* E8 — Theorem 3.3: a k-set-consensus object plus SWMR memory implements
   the k-set RRFD. *)

let run ~seed ?(trials = 400) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  let work = ref [] in
  List.iter
    (fun (n, k) ->
      let pred_bad = ref 0 and unreadable = ref 0 and agreement_ok = ref 0 in
      for _ = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let r =
          Shm.Thm33.one_round ~rng:(Dsim.Rng.split trial_rng) ~n ~k
            ~schedule:(Shm.Exec.Random (Dsim.Rng.split trial_rng))
            ()
        in
        if not r.Shm.Thm33.values_readable then incr unreadable;
        let h = Rrfd.Fault_history.of_rounds ~n [ r.Shm.Thm33.fault_sets ] in
        if not (Rrfd.Predicate.holds (Rrfd.Predicate.k_set ~k) h) then
          incr pred_bad;
        (* and the derived detector really lets Thm 3.1 run on top *)
        let inputs = Tasks.Inputs.distinct n in
        let ex =
          Protocols.Catalog.run_engine
            (Protocols.Catalog.find_exn "kset-one-round")
            ~inputs ~n ~f:(k - 1)
            ~detector:(Rrfd.Detector.of_schedule [ r.Shm.Thm33.fault_sets ])
            ()
        in
        if Tasks.Agreement.check ~k ~inputs ex.Rrfd.Substrate.decisions = None
        then incr agreement_ok;
        work := ex.Rrfd.Substrate.counters :: !work
      done;
      rows :=
        [
          Table.cell_int n;
          Table.cell_int k;
          Table.cell_int trials;
          Table.cell_int !pred_bad;
          Table.cell_int !unreadable;
          Table.cell_int !agreement_ok;
          Table.cell_bool
            (!pred_bad = 0 && !unreadable = 0 && !agreement_ok = trials);
        ]
        :: !rows)
    [ (4, 1); (4, 2); (8, 2); (8, 4); (12, 3) ];
  {
    Table.id = "E8";
    title = "k-set object + SWMR memory implements the k-set RRFD (Thm 3.3)";
    claim =
      "Thm 3.3: writing one's choice from a k-set-consensus object and \
       collecting yields D(i,r) = S − Q with |∪D − ∩D| ≤ k−1, and the \
       values of unsuspected processes are readable";
    header =
      [ "n"; "k"; "trials"; "pred-viol"; "unreadable"; "kset-solved"; "ok" ];
    rows = List.rev !rows;
    notes = [ "kset-solved counts trials where Thm 3.1 on the derived detector solved the task" ];
    counters = Table.counter_stats (Array.of_list (List.rev !work));
  }
