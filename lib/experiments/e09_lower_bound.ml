(* E9 — Corollaries 4.2 / 4.4: k-set agreement in a synchronous system
   with f crash (or omission) faults needs ⌊f/k⌋ + 1 rounds.  The chain
   adversary forces k+1 distinct values from min-flooding at every horizon
   up to ⌊f/k⌋; at ⌊f/k⌋ + 1 the same adversary is powerless.

   Every (case, fault model, horizon) cell is an independent deterministic
   unit, so the table is a Runtime.Campaign.map over the flattened case
   list — rows come back in order regardless of -j. *)

let distinct_live (ex : int Rrfd.Substrate.execution) =
  Tasks.Agreement.distinct_decisions
    ~decisions:
      (Array.mapi
         (fun i d ->
           if Rrfd.Pset.mem i ex.Rrfd.Substrate.crashed then None else d)
         ex.Rrfd.Substrate.decisions)

let run ~seed ?(trials = 1) ?jobs () =
  ignore trials;
  let cases = [ (1, 3); (2, 2); (2, 3); (3, 2); (4, 2) ] in
  let units =
    List.concat_map
      (fun (k, chain_rounds) ->
        let f = k * chain_rounds in
        let bound = (f / k) + 1 in
        List.concat_map
          (fun fault_model ->
            List.init bound (fun h -> (k, chain_rounds, fault_model, h + 1)))
          [ `Crash; `Omission ])
      cases
  in
  let cells =
    Runtime.Campaign.map ?jobs ~seed units
      (fun ~index:_ ~rng:_ (k, chain_rounds, fault_model, horizon) ->
        let f = k * chain_rounds in
        let n = Adversary.Lower_bound.required_processes ~k ~rounds:chain_rounds in
        let bound = (f / k) + 1 in
        let adv = Adversary.Lower_bound.build ~n ~k ~rounds:chain_rounds in
        let pattern =
          match fault_model with
          | `Crash ->
            Syncnet.Faults.crash ~n adv.Adversary.Lower_bound.crash_specs
          | `Omission ->
            Syncnet.Faults.omission ~n
              ~faulty:(Adversary.Lower_bound.omission_faulty adv)
              ~drops:(fun ~round ~sender ->
                Adversary.Lower_bound.omission_drops adv ~round ~sender)
        in
        (* [flood-consensus] at resilience [horizon − 1] is exactly
           [min_flood ~horizon]: flooding that decides the minimum at the
           chosen horizon, which is the algorithm the bound speaks about. *)
        let ex =
          Protocols.Catalog.run_sync
            (Protocols.Catalog.find_exn "flood-consensus")
            ~inputs:adv.Adversary.Lower_bound.inputs ~rounds:horizon ~n
            ~f:(horizon - 1) ~pattern ()
        in
        let distinct = distinct_live ex in
        let at_bound = horizon = bound in
        let expected = if at_bound then distinct <= k else distinct > k in
        ( [
            (match fault_model with `Crash -> "crash" | `Omission -> "omission");
            Table.cell_int n;
            Table.cell_int k;
            Table.cell_int f;
            Table.cell_int horizon;
            Table.cell_int distinct;
            (if at_bound then Printf.sprintf "≤ %d (solves)" k
             else Printf.sprintf "> %d (broken)" k);
            Table.cell_bool expected;
          ],
          ex.Rrfd.Substrate.counters ))
  in
  let rows = List.map fst cells in
  {
    Table.id = "E9";
    title = "⌊f/k⌋ + 1 round lower bound for synchronous k-set agreement";
    claim =
      "Cor 4.2/4.4 (Chaudhuri–Herlihy–Lynch–Tuttle): any k-set agreement \
       algorithm needs ⌊f/k⌋+1 rounds with f crash faults — min-flooding \
       loses agreement at every smaller horizon under the chain adversary \
       and regains it exactly at the bound — for crash and send-omission \
       faults alike";
    header = [ "faults"; "n"; "k"; "f"; "rounds"; "distinct"; "expected"; "ok" ];
    rows;
    notes =
      [
        "distinct = decisions among live processes; the crossover row per \
         (k,f) block is the paper's bound";
      ];
    counters = Table.counter_stats (Array.of_list (List.map snd cells));
  }
