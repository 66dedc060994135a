(* Cross-substrate compositions: the paper's constructions stacked on each
   other, end to end.

   - real async network → item-3 round layer → two-round heard-of closure
     → shared-memory predicate (items 3 + 4 composed);
   - IIS detector → Thm 4.1 simulation → omission predicate → flooding
     decides (Sec. 4 composed with Sec. 2);
   - Thm 3.3 construction → Thm 3.1 algorithm (Sec. 3 composed). *)

module Pset = Rrfd.Pset

let network_rounds_to_shm_closure =
  QCheck.Test.make
    ~name:"items 3+4 composed: network rounds drive the shm closure"
    ~count:100
    QCheck.(pair (Test_support.int_range 3 9) (int_bound 100000))
    (fun (n, seed) ->
      let f = (n - 1) / 2 in
      let inputs = Tasks.Inputs.distinct n in
      (* Two real network rounds produce an item-3 history... *)
      let result =
        Msgnet.Round_layer.run ~seed ~n ~f ~rounds:2
          ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
          ()
      in
      let h = result.Msgnet.Round_layer.induced in
      if Rrfd.Fault_history.rounds h < 2 then true
      else begin
        (* ...which replayed through the closure must land in the
           shared-memory predicate (2f < n). *)
        let closure =
          Rrfd.Emulation.two_round_closure ~n
            ~detector:(Rrfd.Detector.of_history h)
        in
        let simulated =
          Rrfd.Fault_history.of_rounds ~n [ closure.Rrfd.Emulation.simulated ]
        in
        match
          Rrfd.Predicate.explain (Rrfd.Predicate.shared_memory ~f) simulated
        with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d: %s" n f reason
      end)

let iis_simulation_flooding =
  QCheck.Test.make
    ~name:"Secs. 2+4 composed: IIS rounds simulate sync flooding that decides"
    ~count:100
    QCheck.(pair (Test_support.int_range 4 10) (int_bound 100000))
    (fun (n, seed) ->
      let k = 1 + (seed mod 2) in
      let f = 2 * k in
      let rng = Dsim.Rng.create seed in
      let inputs = Tasks.Inputs.distinct n in
      (* ⌊f/k⌋ = 2 simulated omission rounds; flooding with horizon 2 needs
         only validity here (agreement needs more rounds in general), so we
         check the simulation's predicate and the decisions' validity. *)
      let result =
        Rrfd.Sim_omission.simulate ~n ~f ~k
          ~algorithm:(Syncnet.Flood.min_flood ~inputs ~horizon:2)
          ~detector:(Rrfd.Detector_gen.iis rng ~n ~f:k)
          ()
      in
      match result.Rrfd.Sim_omission.omission_violation with
      | Some reason -> QCheck.Test.fail_reportf "predicate: %s" reason
      | None ->
        let decisions = result.Rrfd.Sim_omission.outcome.Rrfd.Substrate.decisions in
        Array.for_all
          (function
            | Some v -> Array.exists (Int.equal v) inputs
            | None -> false)
          decisions)

let thm33_feeds_thm31 =
  QCheck.Test.make ~name:"Sec. 3 composed: Thm 3.3 detector solves via Thm 3.1"
    ~count:200
    QCheck.(
      triple (Test_support.int_range 2 10) (int_bound 100000)
        (Test_support.int_range 1 3))
    (fun (n, seed, k_raw) ->
      let k = 1 + (k_raw mod n) in
      let rng = Dsim.Rng.create seed in
      let r =
        Shm.Thm33.one_round ~rng:(Dsim.Rng.split rng) ~n ~k
          ~schedule:(Shm.Exec.Random (Dsim.Rng.split rng))
          ()
      in
      let inputs = Tasks.Inputs.distinct n in
      let outcome =
        Rrfd.Engine.run ~n
          ~algorithm:(Rrfd.Kset.one_round ~inputs)
          ~detector:(Rrfd.Detector.of_schedule [ r.Shm.Thm33.fault_sets ])
          ()
      in
      Tasks.Agreement.check ~k ~inputs outcome.Rrfd.Substrate.decisions = None)

let omission_chain_matches_crash_chain () =
  (* Both readings of the chain adversary force the same decision pattern
     below the bound. *)
  let k = 2 and rounds = 2 in
  let n = Adversary.Lower_bound.required_processes ~k ~rounds in
  let adv = Adversary.Lower_bound.build ~n ~k ~rounds in
  let run pattern =
    let result =
      Syncnet.Sync_net.run ~n ~rounds ~pattern
        ~algorithm:
          (Syncnet.Flood.min_flood ~inputs:adv.Adversary.Lower_bound.inputs
             ~horizon:rounds)
        ()
    in
    Array.mapi
      (fun i d ->
        if Pset.mem i result.Rrfd.Substrate.crashed then None else d)
      result.Rrfd.Substrate.decisions
  in
  let crash_decisions =
    run (Syncnet.Faults.crash ~n adv.Adversary.Lower_bound.crash_specs)
  in
  let omission_decisions =
    run
      (Syncnet.Faults.omission ~n
         ~faulty:(Adversary.Lower_bound.omission_faulty adv)
         ~drops:(fun ~round ~sender ->
           Adversary.Lower_bound.omission_drops adv ~round ~sender))
  in
  Alcotest.(check int) "crash: k+1 values" (k + 1)
    (Tasks.Agreement.distinct_decisions ~decisions:crash_decisions);
  Alcotest.(check int) "omission: k+1 values" (k + 1)
    (Tasks.Agreement.distinct_decisions ~decisions:omission_decisions)

let tests =
  [
    Alcotest.test_case "omission chain = crash chain" `Quick
      omission_chain_matches_crash_chain;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ network_rounds_to_shm_closure; iis_simulation_flooding; thm33_feeds_thm31 ]
