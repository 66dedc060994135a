(* Engine semantics and Theorem 3.1 (one-round k-set agreement). *)

module Pset = Rrfd.Pset
module Engine = Rrfd.Engine

let s = Test_support.pset

(* A probe algorithm that records what it observes. *)
type probe = {
  me : int;
  observed : (int * Pset.t * int list) list; (* round, faulty, senders heard *)
}

let probe_algorithm : (probe, int, int) Rrfd.Algorithm.t =
  {
    name = "probe";
    init = (fun ~n:_ p -> { me = p; observed = [] });
    emit = (fun st ~round -> (st.me * 100) + round);
    deliver =
      (fun st ~round ~view ->
        let senders = ref [] in
        Rrfd.View.iter (fun j _ -> senders := j :: !senders) view;
        {
          st with
          observed =
            (round, Rrfd.View.faulty view, List.rev !senders) :: st.observed;
        });
    decide = (fun st -> if List.length st.observed >= 2 then Some st.me else None);
  }

let engine_delivers_exactly_unsuspected () =
  let d1 = [| s [ 1 ]; s []; s [ 0; 1 ] |] in
  let detector = Rrfd.Detector.of_schedule [ d1 ] in
  let states, history =
    Engine.states_after ~n:3 ~rounds:1 ~algorithm:probe_algorithm ~detector ()
  in
  Alcotest.(check int) "one round" 1 (Rrfd.Fault_history.rounds history);
  let round, faulty, senders = List.hd states.(0).observed in
  Alcotest.(check int) "round number" 1 round;
  Alcotest.(check bool) "faulty passed through" true (Pset.equal faulty (s [ 1 ]));
  Alcotest.(check (list int)) "heard complement" [ 0; 2 ] senders;
  let _, _, senders2 = List.hd states.(2).observed in
  Alcotest.(check (list int)) "p2 heard only p2" [ 2 ] senders2

let engine_stops_on_decision () =
  let outcome =
    Engine.run ~n:3 ~algorithm:probe_algorithm ~detector:Rrfd.Detector.none ()
  in
  Alcotest.(check int) "stops at round 2" 2 outcome.Rrfd.Substrate.rounds_used;
  Array.iteri
    (fun i d -> Alcotest.(check (option int)) "decided self" (Some i) d)
    outcome.Rrfd.Substrate.decisions;
  Alcotest.(check (array (option int))) "decision rounds"
    [| Some 2; Some 2; Some 2 |]
    outcome.Rrfd.Substrate.decision_rounds

let engine_rejects_full_fault_set () =
  let detector = Rrfd.Detector.constant ~n:2 [| s [ 0; 1 ]; s [] |] in
  Alcotest.check_raises "D = S rejected"
    (Invalid_argument "Engine: detector declared every process faulty (D = S)")
    (fun () ->
      ignore (Engine.run ~n:2 ~algorithm:probe_algorithm ~detector ()))

let engine_online_check_stops () =
  let bad = Rrfd.Detector.constant ~n:3 [| s [ 1; 2 ]; s []; s [] |] in
  let outcome =
    Engine.run ~n:3 ~check:(Rrfd.Predicate.async_resilient ~f:1)
      ~stop_when_decided:false ~max_rounds:10 ~algorithm:probe_algorithm
      ~detector:bad ()
  in
  Alcotest.(check bool) "violation reported" true
    (Option.is_some outcome.Rrfd.Substrate.violation);
  Alcotest.(check int) "stopped at first bad round" 1 outcome.Rrfd.Substrate.rounds_used

(* Theorem 3.1: under the k-set detector, one round suffices. *)
let kset_one_round_example () =
  let inputs = [| 10; 20; 30; 40 |] in
  (* Common part {3}, uncertainty {0}: D ∈ {{3}, {0,3}} — k = 1 would fail,
     k = 2 allows it. *)
  let d = [| s [ 3 ]; s [ 0; 3 ]; s [ 3 ]; s [ 0; 3 ] |] in
  let detector = Rrfd.Detector.of_schedule [ d ] in
  let outcome =
    Engine.run ~n:4 ~check:(Rrfd.Predicate.k_set ~k:2)
      ~algorithm:(Rrfd.Kset.one_round ~inputs) ~detector ()
  in
  Alcotest.(check (option string)) "detector legal" None outcome.Rrfd.Substrate.violation;
  Alcotest.(check (array (option int))) "decisions"
    [| Some 10; Some 20; Some 10; Some 20 |]
    outcome.Rrfd.Substrate.decisions;
  Alcotest.(check (option string)) "2-set agreement" None
    (Agreement_check.kset ~k:2 ~inputs outcome.Rrfd.Substrate.decisions)

let kset_property =
  QCheck.Test.make ~name:"Thm 3.1: ≤ k distinct decisions in one round"
    ~count:500
    (Test_support.sized_seed_plus ~max_n:16 (Test_support.int_range 1 8))
    (fun (n, seed, k_raw) ->
      let k = 1 + (k_raw mod n) in
      let rng = Test_support.rng_of seed in
      let inputs = Array.init n (fun i -> 1000 + i) in
      let detector = Rrfd.Detector_gen.k_set rng ~n ~k in
      let outcome =
        Engine.run ~n ~check:(Rrfd.Predicate.k_set ~k)
          ~algorithm:(Rrfd.Kset.one_round ~inputs) ~detector ()
      in
      match outcome.Rrfd.Substrate.violation with
      | Some v -> QCheck.Test.fail_reportf "detector broke predicate: %s" v
      | None -> (
        if outcome.Rrfd.Substrate.rounds_used <> 1 then
          QCheck.Test.fail_reportf "took %d rounds" outcome.Rrfd.Substrate.rounds_used
        else
          match Agreement_check.kset ~k ~inputs outcome.Rrfd.Substrate.decisions with
          | None -> true
          | Some reason -> QCheck.Test.fail_reportf "n=%d k=%d: %s" n k reason))

let consensus_under_identical_views =
  QCheck.Test.make ~name:"consensus under equation-5 detectors" ~count:300
    (Test_support.sized_seed ~max_n:16 ())
    (fun (n, seed) ->
      let rng = Test_support.rng_of seed in
      let inputs = Array.init n (fun i -> 7 * i) in
      let detector = Rrfd.Detector_gen.identical rng ~n in
      let outcome =
        Engine.run ~n ~algorithm:(Rrfd.Kset.consensus ~inputs) ~detector ()
      in
      Agreement_check.kset ~k:1 ~inputs outcome.Rrfd.Substrate.decisions = None)

let tests =
  [
    Alcotest.test_case "delivery matches fault sets" `Quick
      engine_delivers_exactly_unsuspected;
    Alcotest.test_case "stops on decision" `Quick engine_stops_on_decision;
    Alcotest.test_case "rejects D = S" `Quick engine_rejects_full_fault_set;
    Alcotest.test_case "online predicate check" `Quick engine_online_check_stops;
    Alcotest.test_case "Thm 3.1 worked example" `Quick kset_one_round_example;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ kset_property; consensus_under_identical_views ]
