(* Safe agreement: the BG-simulation primitive behind the impossibility
   results Section 4 transfers. *)

let all_agree_and_valid ~inputs decisions =
  let decided = Array.to_list decisions |> List.filter_map Fun.id in
  let distinct = List.sort_uniq compare decided in
  List.length distinct <= 1
  && List.for_all (fun v -> Array.exists (Int.equal v) inputs) decided

let crash_free_terminates () =
  let inputs = [| 3; 1; 4; 1; 5 |] in
  let r = Shm.Safe_agreement.run ~inputs ~schedule:Shm.Exec.Round_robin () in
  Array.iter
    (fun d -> Alcotest.(check bool) "decided" true (Option.is_some d))
    r.Shm.Safe_agreement.decisions;
  Alcotest.(check bool) "agreement+validity" true
    (all_agree_and_valid ~inputs r.Shm.Safe_agreement.decisions)

let solo_runner_decides_own () =
  let inputs = [| 7; 8; 9 |] in
  (* p1 runs alone to completion before anyone else takes a step. *)
  let r =
    Shm.Safe_agreement.run ~inputs
      ~schedule:(Shm.Exec.Fixed (List.init 400 (fun _ -> 1)))
      ()
  in
  Alcotest.(check (option int)) "p1 decides its own value" (Some 8)
    r.Shm.Safe_agreement.decisions.(1)

let doorway_crash_blocks () =
  let inputs = [| 5; 6; 7 |] in
  let stuck = [| true; false; false |] in
  (* p0 enters the doorway first and dies there; with a schedule that runs
     p0's doorway entry before anyone else moves, nobody can resolve. *)
  let prefix = List.init 200 (fun i -> if i < 50 then 0 else (i mod 2) + 1) in
  let r =
    Shm.Safe_agreement.run ~inputs ~stuck_in_doorway:stuck
      ~schedule:(Shm.Exec.Fixed prefix) ()
  in
  Alcotest.(check (option int)) "p1 blocked" None r.Shm.Safe_agreement.decisions.(1);
  Alcotest.(check (option int)) "p2 blocked" None r.Shm.Safe_agreement.decisions.(2)

let property_agreement_always =
  QCheck.Test.make
    ~name:"safe agreement: deciders agree and values are valid, always"
    ~count:400
    QCheck.(
      triple (Test_support.int_range 1 8) (int_bound 100000) (int_bound 255))
    (fun (n, seed, stuck_bits) ->
      let rng = Dsim.Rng.create seed in
      let inputs = Array.init n (fun i -> 10 * (i + 1)) in
      let stuck = Array.init n (fun i -> (stuck_bits lsr i) land 1 = 1) in
      let r =
        Shm.Safe_agreement.run ~inputs ~stuck_in_doorway:stuck
          ~schedule:(Shm.Exec.Random rng) ()
      in
      if all_agree_and_valid ~inputs r.Shm.Safe_agreement.decisions then true
      else QCheck.Test.fail_reportf "n=%d: disagreement or invalid value" n)

let property_termination_without_doorway_crash =
  QCheck.Test.make
    ~name:"safe agreement: everyone decides when no doorway crash" ~count:400
    QCheck.(pair (Test_support.int_range 1 8) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Dsim.Rng.create seed in
      let inputs = Array.init n (fun i -> 10 * (i + 1)) in
      let r = Shm.Safe_agreement.run ~inputs ~schedule:(Shm.Exec.Random rng) () in
      Array.for_all Option.is_some r.Shm.Safe_agreement.decisions)

let tests =
  [
    Alcotest.test_case "crash-free terminates" `Quick crash_free_terminates;
    Alcotest.test_case "solo runner" `Quick solo_runner_decides_own;
    Alcotest.test_case "doorway crash blocks" `Quick doorway_crash_blocks;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ property_agreement_always; property_termination_without_doorway_crash ]
