(* E6 — Theorem 3.1: one-round k-set agreement under the k-set detector.

   The trial loop is a Runtime.Campaign: each trial draws its RNG from
   (seed, case, trial) so the table is identical for every -j. *)

let run ~seed ?(trials = 500) ?jobs () =
  let cases =
    [ (4, 1); (4, 2); (4, 3); (8, 1); (8, 3); (8, 7); (16, 2); (16, 5); (24, 4) ]
  in
  let work = ref [] in
  let rows =
    List.mapi
      (fun case_idx (n, k) ->
        let obs =
          Runtime.Campaign.run ?jobs
            ~seed:(Dsim.Rng.derive_seed seed case_idx)
            ~trials
            (fun ~trial:_ ~rng ->
              let inputs = Tasks.Inputs.distinct n in
              let detector = Rrfd.Detector_gen.k_set rng ~n ~k in
              let ex =
                Protocols.Catalog.run_engine
                  (Protocols.Catalog.find_exn "kset-one-round")
                  ~inputs
                  ~check:(Rrfd.Predicate.k_set ~k)
                  ~n ~f:(k - 1) ~detector ()
              in
              let distinct =
                Tasks.Agreement.distinct_decisions
                  ~decisions:ex.Rrfd.Substrate.decisions
              in
              let failed =
                Tasks.Agreement.check ~k ~inputs ex.Rrfd.Substrate.decisions
                <> None
              in
              ( distinct,
                failed,
                ex.Rrfd.Substrate.rounds_used <> 1,
                ex.Rrfd.Substrate.counters ))
        in
        work := Array.map (fun (_, _, _, c) -> c) obs :: !work;
        let max_distinct =
          Array.fold_left (fun m (d, _, _, _) -> max m d) 0 obs
        in
        let count p = Array.fold_left (fun c o -> if p o then c + 1 else c) 0 obs in
        let failures = count (fun (_, f, _, _) -> f) in
        let rounds_bad = count (fun (_, _, r, _) -> r) in
        [
          Table.cell_int n;
          Table.cell_int k;
          Table.cell_int trials;
          Table.cell_int max_distinct;
          Table.cell_int failures;
          Table.cell_int rounds_bad;
          Table.cell_bool (failures = 0 && rounds_bad = 0 && max_distinct <= k);
        ])
      cases
  in
  {
    Table.id = "E6";
    title = "one-round k-set agreement (Theorem 3.1)";
    claim =
      "Thm 3.1: under |∪D − ∩D| < k per round, emitting the input and \
       deciding the lowest-id unsuspected value solves k-set agreement in \
       exactly one round";
    header =
      [ "n"; "k"; "trials"; "max-distinct"; "task-fails"; "extra-rounds"; "ok" ];
    rows;
    notes = [ "max-distinct ≤ k is the agreement bound; 0 task-fails = validity+termination also hold" ];
    counters = Table.counter_stats (Array.concat (List.rev !work));
  }
