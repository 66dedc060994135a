(* E17 — ablation on the E9 lower bound: the ⌊f/k⌋+1 bound is worst-case.
   With f' < f actual crashes, early-deciding consensus finishes in
   min(f'+2, f+1) rounds; the chain adversary is exactly the schedule that
   makes "early" impossible. *)

let latest_decision_round (ex : int Rrfd.Substrate.execution) =
  Array.fold_left
    (fun acc r -> match r with Some round -> max acc round | None -> acc)
    0 ex.Rrfd.Substrate.decision_rounds

let run ~seed ?(trials = 150) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  let work = ref [] in
  let n = 10 and f = 6 in
  (* Sweep the number of actual crashes. *)
  List.iter
    (fun actual ->
      let worst_round = ref 0 and violations = ref 0 in
      for _ = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let inputs = Tasks.Inputs.distinct n in
        let victims = Dsim.Rng.sample_without_replacement trial_rng actual n in
        let specs =
          List.map
            (fun p ->
              ( p,
                1 + Dsim.Rng.int trial_rng (f + 1),
                Rrfd.Pset.random_subset trial_rng (Rrfd.Pset.full n) ))
            victims
        in
        let pattern = Syncnet.Faults.crash ~n specs in
        let ex =
          Protocols.Catalog.run_sync
            (Protocols.Catalog.find_exn "early-deciding")
            ~inputs ~rounds:(f + 1) ~n ~f ~pattern ()
        in
        worst_round := max !worst_round (latest_decision_round ex);
        let masked =
          Array.mapi
            (fun i d ->
              if Rrfd.Pset.mem i ex.Rrfd.Substrate.crashed then None else d)
            ex.Rrfd.Substrate.decisions
        in
        if
          Tasks.Agreement.check ~allow_undecided:ex.Rrfd.Substrate.crashed
            ~k:1 ~inputs masked
          <> None
        then incr violations;
        work := ex.Rrfd.Substrate.counters :: !work
      done;
      let bound = min (actual + 2) (f + 1) in
      rows :=
        [
          "random crashes";
          Table.cell_int actual;
          Table.cell_int trials;
          Table.cell_int !worst_round;
          Table.cell_int bound;
          Table.cell_int !violations;
          Table.cell_bool (!violations = 0 && !worst_round <= bound);
        ]
        :: !rows)
    [ 0; 1; 2; 4; 6 ];
  (* The chain adversary saturates the bound. *)
  let chain_rounds = 3 in
  let k = 1 in
  let cn = Adversary.Lower_bound.required_processes ~k ~rounds:chain_rounds in
  let cf = k * chain_rounds in
  let adv = Adversary.Lower_bound.build ~n:cn ~k ~rounds:chain_rounds in
  let pattern = Syncnet.Faults.crash ~n:cn adv.Adversary.Lower_bound.crash_specs in
  let chain_ex =
    Protocols.Catalog.run_sync
      (Protocols.Catalog.find_exn "early-deciding")
      ~inputs:adv.Adversary.Lower_bound.inputs ~rounds:(cf + 2) ~n:cn
      ~f:(cf + 1) ~pattern ()
  in
  work := chain_ex.Rrfd.Substrate.counters :: !work;
  let worst = latest_decision_round chain_ex in
  rows :=
    [
      "chain adversary";
      Table.cell_int cf;
      "1";
      Table.cell_int worst;
      Table.cell_int (cf + 2);
      "-";
      Table.cell_bool (worst >= chain_rounds + 1);
    ]
    :: !rows;
  {
    Table.id = "E17";
    title = "early-deciding consensus: the bound is worst-case only";
    claim =
      "ablation on Cor 4.2: with f' actual crashes, consensus decides in \
       min(f'+2, f+1) rounds; the chain adversary (the lower-bound \
       schedule) forces decisions past round f'+1";
    header =
      [
        "workload"; "f'"; "trials"; "worst-round"; "bound"; "violations"; "ok";
      ];
    rows = List.rev !rows;
    notes = [ Printf.sprintf "random-crash rows: n = %d, f = %d" n f ];
    counters = Table.counter_stats (Array.of_list (List.rev !work));
  }
