(* Section 5: the semi-synchronous machine, the 2-step algorithm, and the
   Θ(n) baseline. *)

module Pset = Rrfd.Pset

let machine_round_robin_is_fair () =
  let program =
    {
      Semisync.Machine.name = "counter";
      init = (fun ~n:_ _ -> 0);
      step = (fun s ~inbox:_ -> (s + 1, None));
      decide = (fun s -> if s >= 3 then Some s else None);
    }
  in
  let r = Semisync.Machine.run ~n:4 ~schedule:Semisync.Machine.Round_robin program in
  Array.iter
    (fun d -> Alcotest.(check (option int)) "three steps each" (Some 3) d)
    r.Semisync.Machine.decisions

let machine_broadcast_reaches_all () =
  let received = Array.make 3 false in
  let program =
    {
      Semisync.Machine.name = "bcast";
      init = (fun ~n:_ p -> p);
      step =
        (fun s ~inbox ->
          if inbox <> [] then received.(s) <- true;
          (s, if s = 0 then Some "m" else None));
      decide = (fun _ -> Some 0);
    }
  in
  (* everyone decides at step 1, but p0's broadcast fills the buffers; give
     each process two steps by delaying decisions *)
  let program =
    { program with
      Semisync.Machine.decide = (fun _ -> None);
      step =
        (fun s ~inbox ->
          if inbox <> [] then received.(s) <- true;
          (s, if s = 0 then Some "m" else None));
    }
  in
  let _ =
    Semisync.Machine.run ~n:3 ~schedule:Semisync.Machine.Round_robin
      ~max_steps_per_process:3 program
  in
  Array.iter (fun b -> Alcotest.(check bool) "received" true b) received

let two_step_decides_in_two_steps () =
  let inputs = [| 4; 5; 6 |] in
  let r =
    Semisync.Two_step.run ~n:3 ~inputs ~schedule:Semisync.Machine.Round_robin ()
  in
  Array.iter
    (fun steps -> Alcotest.(check (option int)) "two steps" (Some 2) steps)
    r.Semisync.Two_step.result.Semisync.Machine.steps_to_decide;
  Alcotest.(check (option string)) "consensus" None
    (Agreement_check.kset ~k:1 ~inputs
       r.Semisync.Two_step.result.Semisync.Machine.decisions);
  Alcotest.(check (option string)) "equation 5" None
    (Semisync.Two_step.check_identical r)

let two_step_property =
  QCheck.Test.make
    ~name:"E12/Thm 5.1: 2-step consensus under random speeds and crashes"
    ~count:500
    QCheck.(
      triple (Test_support.int_range 2 16) (int_bound 100000) (int_bound 100))
    (fun (n, seed, crash_raw) ->
      let rng = Dsim.Rng.create seed in
      let inputs = Array.init n (fun i -> 50 + i) in
      (* crash up to n-1 processes at random step counts *)
      let crash_count = crash_raw mod n in
      let crashes =
        Dsim.Rng.sample_without_replacement rng crash_count n
        |> List.map (fun p -> (p, 1 + Dsim.Rng.int rng 4))
      in
      let r =
        Semisync.Two_step.run ~n ~inputs
          ~schedule:(Semisync.Machine.Random (Dsim.Rng.split rng))
          ~crashes ()
      in
      let crashed = r.Semisync.Two_step.result.Semisync.Machine.crashed in
      let decisions = r.Semisync.Two_step.result.Semisync.Machine.decisions in
      (match Semisync.Two_step.check_identical r with
      | Some reason -> QCheck.Test.fail_reportf "eq5: %s" reason
      | None -> ());
      let steps_ok =
        Array.for_all
          (fun s -> match s with None -> true | Some s -> s = 2)
          r.Semisync.Two_step.result.Semisync.Machine.steps_to_decide
      in
      if not steps_ok then QCheck.Test.fail_reportf "a decision took ≠ 2 steps"
      else
        match
          Agreement_check.kset ~allow_undecided:crashed ~k:1 ~inputs decisions
        with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d: %s" n reason)

let ring_baseline_takes_linear_steps () =
  List.iter
    (fun n ->
      let inputs = Array.init n (fun i -> 900 + i) in
      let r =
        Semisync.Ring_baseline.run ~n ~inputs ~schedule:Semisync.Machine.Round_robin
      in
      Alcotest.(check (option string)) "consensus on p0's value" None
        (Agreement_check.kset ~k:1 ~inputs r.Semisync.Machine.decisions);
      Array.iter
        (fun d -> Alcotest.(check (option int)) "value of p0" (Some 900) d)
        r.Semisync.Machine.decisions;
      let max_steps =
        Array.fold_left
          (fun acc s -> max acc (Option.value s ~default:0))
          0 r.Semisync.Machine.steps_to_decide
      in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d: max steps %d ≥ n" n max_steps)
        true (max_steps >= n))
    [ 2; 4; 8; 16 ]

let tests =
  [
    Alcotest.test_case "machine fairness" `Quick machine_round_robin_is_fair;
    Alcotest.test_case "machine broadcast" `Quick machine_broadcast_reaches_all;
    Alcotest.test_case "two-step worked example" `Quick two_step_decides_in_two_steps;
    Alcotest.test_case "ring baseline linear" `Quick ring_baseline_takes_linear_steps;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ two_step_property ]
