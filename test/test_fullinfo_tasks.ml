(* Full-information views and the task checkers. *)

module Pset = Rrfd.Pset
module FI = Rrfd.Full_info
module FI_read = Test_support.Oracle.Full_info

let s = Pset.of_list

let view_after rounds detector =
  let inputs = [| 10; 11; 12 |] in
  let states, history =
    Rrfd.Engine.states_after ~n:3 ~rounds
      ~algorithm:(FI.algorithm ~inputs) ~detector ()
  in
  (states, history)

let views_grow_and_track_owner () =
  let states, _ = view_after 2 Rrfd.Detector.none in
  Array.iteri
    (fun i v ->
      match v with
      | FI.Node { owner; round; _ } ->
        Alcotest.(check int) "owner" i owner;
        Alcotest.(check int) "depth" 2 round
      | FI.Initial _ -> Alcotest.fail "no round recorded")
    states

let failure_free_views_know_everything () =
  let states, _ = view_after 1 Rrfd.Detector.none in
  Array.iter
    (fun v ->
      Alcotest.(check (list (pair int int)))
        "all inputs known"
        [ (0, 10); (1, 11); (2, 12) ]
        (FI_read.known_inputs v))
    states

let missed_inputs_stay_unknown () =
  (* p0 never hears p2, directly or indirectly, for two rounds. *)
  let d = [| s [ 2 ]; s [ 2 ]; s [ 0; 1 ] |] in
  let detector = Rrfd.Detector.of_schedule ~after:d [ d ] in
  let states, _ = view_after 2 detector in
  Alcotest.(check bool) "p0 doesn't know p2" false
    (FI_read.knows_input_of states.(0) 2);
  Alcotest.(check bool) "p0 knows p1" true
    (FI_read.knows_input_of states.(0) 1);
  Alcotest.(check bool) "p2 knows itself" true
    (FI_read.knows_input_of states.(2) 2)

let relayed_knowledge_propagates () =
  (* Round 1: p1 hears p2.  Round 2: p0 hears p1 (still not p2): p0 now
     knows p2's input through p1's round-1 view. *)
  let r1 = [| s [ 2 ]; s []; s [] |] in
  let r2 = [| s [ 2 ]; s []; s [] |] in
  let detector = Rrfd.Detector.of_schedule [ r1; r2 ] in
  let states, _ = view_after 2 detector in
  Alcotest.(check bool) "p0 learned p2 via p1" true
    (FI_read.knows_input_of states.(0) 2)

let heard_last_round () =
  let d = [| s [ 1 ]; s []; s [] |] in
  let states, _ = view_after 1 (Rrfd.Detector.of_schedule [ d ]) in
  Alcotest.(check bool) "heard = complement" true
    (Pset.equal (FI_read.heard_from_last_round states.(0)) (s [ 0; 2 ]))

let view_equality () =
  let states1, _ = view_after 2 Rrfd.Detector.none in
  let states2, _ = view_after 2 Rrfd.Detector.none in
  Alcotest.(check bool) "deterministic equal" true
    (FI.equal states1.(0) states2.(0));
  Alcotest.(check bool) "different owners differ" false
    (FI.equal states1.(0) states1.(1))

let agreement_checker_clauses () =
  let inputs = [| 1; 2; 3 |] in
  Alcotest.(check (option string)) "ok" None
    (Tasks.Agreement.check ~k:2 ~inputs [| Some 1; Some 2; Some 1 |]);
  (match Tasks.Agreement.check ~k:1 ~inputs [| Some 1; Some 2; Some 1 |] with
  | Some m ->
    Alcotest.(check bool) "agreement clause" true
      (String.length m > 0 && String.sub m 0 9 = "agreement")
  | None -> Alcotest.fail "expected agreement violation");
  (match Tasks.Agreement.check ~k:2 ~inputs [| Some 9; Some 2; Some 1 |] with
  | Some m ->
    Alcotest.(check bool) "validity clause" true (String.sub m 0 8 = "validity")
  | None -> Alcotest.fail "expected validity violation");
  (match Tasks.Agreement.check ~k:2 ~inputs [| None; Some 2; Some 1 |] with
  | Some m ->
    Alcotest.(check bool) "termination clause" true
      (String.sub m 0 11 = "termination")
  | None -> Alcotest.fail "expected termination violation");
  Alcotest.(check (option string)) "undecided allowance" None
    (Tasks.Agreement.check
       ~allow_undecided:(Pset.singleton 0)
       ~k:2 ~inputs
       [| None; Some 2; Some 1 |])

let agreement_report () =
  let inputs = [| 1; 2; 3 |] in
  let r = Tasks.Agreement.evaluate ~inputs ~decisions:[| Some 1; None; Some 7 |] in
  Alcotest.(check (list int)) "undecided" [ 1 ] r.Tasks.Agreement.undecided;
  Alcotest.(check (list int)) "distinct" [ 1; 7 ] r.Tasks.Agreement.distinct_values;
  Alcotest.(check (list (pair int int))) "invalid" [ (2, 7) ] r.Tasks.Agreement.invalid;
  Alcotest.(check int) "distinct count" 2
    (Tasks.Agreement.distinct_decisions ~decisions:[| Some 1; None; Some 7 |])

let input_generators () =
  Alcotest.(check (array int)) "distinct" [| 0; 1; 2 |] (Tasks.Inputs.distinct 3);
  Alcotest.(check (array int)) "constant" [| 5; 5 |] (Tasks.Inputs.constant 2 5);
  let rng = Dsim.Rng.create 1 in
  Array.iter
    (fun v -> Alcotest.(check bool) "binary" true (v = 0 || v = 1))
    (Tasks.Inputs.binary rng 20)

let tests =
  [
    Alcotest.test_case "views grow" `Quick views_grow_and_track_owner;
    Alcotest.test_case "failure-free knows all" `Quick
      failure_free_views_know_everything;
    Alcotest.test_case "missed inputs unknown" `Quick missed_inputs_stay_unknown;
    Alcotest.test_case "relay propagates" `Quick relayed_knowledge_propagates;
    Alcotest.test_case "heard last round" `Quick heard_last_round;
    Alcotest.test_case "view equality" `Quick view_equality;
    Alcotest.test_case "agreement clauses" `Quick agreement_checker_clauses;
    Alcotest.test_case "agreement report" `Quick agreement_report;
    Alcotest.test_case "input generators" `Quick input_generators;
  ]
