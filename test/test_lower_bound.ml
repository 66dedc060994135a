(* Corollaries 4.2/4.4: the chain adversary forces k+1 values at horizon
   ⌊f/k⌋ and agreement returns one round later. *)

module Pset = Rrfd.Pset

let run_against_chain ~n ~k ~chain_rounds ~horizon =
  let adv = Adversary.Lower_bound.build ~n ~k ~rounds:chain_rounds in
  let pattern = Syncnet.Faults.crash ~n adv.Adversary.Lower_bound.crash_specs in
  let f = k * chain_rounds in
  let algorithm =
    Syncnet.Flood.min_flood ~inputs:adv.Adversary.Lower_bound.inputs ~horizon
  in
  let result = Syncnet.Sync_net.run ~n ~rounds:horizon ~pattern ~algorithm () in
  (adv, f, result)

let distinct_live_decisions result =
  Tasks.Agreement.distinct_decisions
    ~decisions:
      (Array.mapi
         (fun i d ->
           if Pset.mem i result.Rrfd.Substrate.crashed then None else d)
         result.Rrfd.Substrate.decisions)

let chain_breaks_agreement_at_the_bound () =
  List.iter
    (fun (k, rounds) ->
      let n = Adversary.Lower_bound.required_processes ~k ~rounds in
      let _, _, result = run_against_chain ~n ~k ~chain_rounds:rounds ~horizon:rounds in
      Alcotest.(check int)
        (Printf.sprintf "k=%d rounds=%d: k+1 values" k rounds)
        (k + 1) (distinct_live_decisions result))
    [ (1, 1); (1, 2); (1, 4); (2, 1); (2, 3); (3, 2) ]

let one_more_round_restores_agreement () =
  List.iter
    (fun (k, rounds) ->
      let n = Adversary.Lower_bound.required_processes ~k ~rounds in
      let _, _, result =
        run_against_chain ~n ~k ~chain_rounds:rounds ~horizon:(rounds + 1)
      in
      Alcotest.(check bool)
        (Printf.sprintf "k=%d rounds=%d: ≤ k values at ⌊f/k⌋+1" k rounds)
        true
        (distinct_live_decisions result <= k))
    [ (1, 1); (1, 2); (1, 4); (2, 1); (2, 3); (3, 2) ]

let chain_respects_crash_budget () =
  let adv = Adversary.Lower_bound.build ~n:12 ~k:2 ~rounds:3 in
  Alcotest.(check int) "k·rounds crashes" 6
    (List.length adv.Adversary.Lower_bound.crash_specs);
  (* and the induced execution really satisfies the crash predicate *)
  let pattern = Syncnet.Faults.crash ~n:12 adv.Adversary.Lower_bound.crash_specs in
  let result =
    Syncnet.Sync_net.run ~n:12 ~rounds:4 ~pattern ~stop_when_decided:false
      ~algorithm:(Rrfd.Full_info.algorithm ~inputs:adv.Adversary.Lower_bound.inputs)
      ()
  in
  Alcotest.(check (option string)) "crash predicate holds" None
    (Rrfd.Predicate.explain (Rrfd.Predicate.crash ~f:6)
       result.Rrfd.Substrate.induced)

let requires_enough_processes () =
  Alcotest.check_raises "too small"
    (Invalid_argument
       "Lower_bound.build: system too small for the chain construction")
    (fun () -> ignore (Adversary.Lower_bound.build ~n:3 ~k:2 ~rounds:1))

let tests =
  [
    Alcotest.test_case "k+1 values at the bound" `Quick
      chain_breaks_agreement_at_the_bound;
    Alcotest.test_case "agreement one round later" `Quick
      one_more_round_restores_agreement;
    Alcotest.test_case "crash budget and predicate" `Quick
      chain_respects_crash_budget;
    Alcotest.test_case "size requirement" `Quick requires_enough_processes;
  ]
