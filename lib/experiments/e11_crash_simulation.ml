(* E11 — Theorem 4.3: three asynchronous snapshot rounds per simulated
   synchronous crash round, with the crash predicate holding among live
   simulated processes.

   Trials run as a Runtime.Campaign with per-(case, trial) RNG derivation;
   the avg-crashes cell is the campaign mean via Runtime.Stats. *)

let run ~seed ?(trials = 200) ?jobs () =
  let cases = [ (4, 1, 2); (4, 1, 3); (6, 2, 2); (8, 2, 3); (10, 3, 2) ] in
  let work = ref [] in
  let rows =
    List.mapi
      (fun case_idx (n, k, sync_rounds) ->
        let f = k * sync_rounds in
        let obs =
          Runtime.Campaign.run ?jobs
            ~seed:(Dsim.Rng.derive_seed seed case_idx)
            ~trials
            (fun ~trial:_ ~rng ->
              let inputs = Tasks.Inputs.distinct n in
              let sync = Syncnet.Flood.min_flood ~inputs ~horizon:sync_rounds in
              let algorithm = Rrfd.Sim_crash.algorithm ~sync in
              let detector = Rrfd.Detector_gen.iis rng ~n ~f:k in
              let states, history =
                Rrfd.Engine.states_after ~n
                  ~rounds:(Rrfd.Sim_crash.async_rounds ~sync_rounds)
                  ~algorithm ~detector ()
              in
              let witness_gaps = ref 0 in
              Array.iter
                (fun s ->
                  if Rrfd.Sim_crash.missing_witnesses s > 0 then
                    incr witness_gaps)
                states;
              let check_failed =
                Rrfd.Sim_crash.check_simulated ~f ~k states <> None
              in
              let crashes =
                Rrfd.Pset.cardinal
                  (Rrfd.Fault_history.cumulative_union
                     (Rrfd.Sim_crash.simulated_history states))
              in
              (check_failed, !witness_gaps, crashes, Rrfd.Counters.of_history history))
        in
        work := Array.map (fun (_, _, _, c) -> c) obs :: !work;
        let check_bad =
          Array.fold_left (fun c (b, _, _, _) -> if b then c + 1 else c) 0 obs
        in
        let witness_bad =
          Array.fold_left (fun c (_, w, _, _) -> c + w) 0 obs
        in
        let crash_stats =
          Runtime.Stats.of_ints (Array.map (fun (_, _, c, _) -> c) obs)
        in
        [
          Table.cell_int n;
          Table.cell_int k;
          Table.cell_int sync_rounds;
          Table.cell_int (3 * sync_rounds);
          Table.cell_int trials;
          Table.cell_int check_bad;
          Table.cell_int witness_bad;
          Table.cell_float crash_stats.Runtime.Stats.mean;
          Table.cell_bool (check_bad = 0 && witness_bad = 0);
        ])
      cases
  in
  {
    Table.id = "E11";
    title = "crash-fault simulation: 3 async rounds per sync round (Thm 4.3)";
    claim =
      "Thm 4.3: an async snapshot system with ≤k failures simulates \
       ⌊f/k⌋ rounds of a synchronous system with ≤f crash faults, via n \
       parallel adopt-commits per round; ≤k·r simulated crashes by round r \
       and crash closure hold";
    header =
      [
        "n"; "k"; "sync-rounds"; "async-rounds"; "trials"; "check-viol";
        "witness-gaps"; "avg-crashes"; "ok";
      ];
    rows;
    notes =
      [ "overhead is exactly 3 asynchronous rounds per simulated synchronous round" ];
    counters = Table.counter_stats (Array.concat (List.rev !work));
  }
