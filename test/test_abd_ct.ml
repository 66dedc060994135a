(* The message-passing register emulation (ABD) and the classic
   failure-detector consensus (Chandra-Toueg style) — the paper's item-4
   citation [22] and its Sec. 6-7 relation to detector-augmented systems. *)

module Pset = Rrfd.Pset

let drive sim = Dsim.Sim.run sim

let abd_sequential_read_after_write () =
  let sim = Dsim.Sim.create ~seed:3 () in
  let reg = Msgnet.Abd.create ~sim ~n:5 ~f:2 ~writer:0 () in
  let read_result = ref (Some (-1)) in
  Msgnet.Abd.write reg ~value:42 ~on_done:(fun () ->
      Msgnet.Abd.read reg ~proc:3 ~on_done:(fun v -> read_result := v));
  drive sim;
  Alcotest.(check (option int)) "read sees completed write" (Some 42) !read_result;
  Alcotest.(check (option string)) "history atomic" None
    (Msgnet.Abd.History.check_atomic (Msgnet.Abd.History.events reg))

let abd_initial_read () =
  let sim = Dsim.Sim.create ~seed:4 () in
  let reg = Msgnet.Abd.create ~sim ~n:3 ~f:1 ~writer:0 () in
  let result = ref (Some 0) in
  Msgnet.Abd.read reg ~proc:2 ~on_done:(fun v -> result := v);
  drive sim;
  Alcotest.(check (option int)) "unwritten register reads None" None !result

let abd_tolerates_f_crashes () =
  let sim = Dsim.Sim.create ~seed:5 () in
  let reg = Msgnet.Abd.create ~sim ~n:5 ~f:2 ~writer:0 () in
  Msgnet.Abd.crash reg 3;
  Msgnet.Abd.crash reg 4;
  let done_write = ref false and read_result = ref None in
  Msgnet.Abd.write reg ~value:7 ~on_done:(fun () ->
      done_write := true;
      Msgnet.Abd.read reg ~proc:1 ~on_done:(fun v -> read_result := v));
  drive sim;
  Alcotest.(check bool) "write completes despite f crashes" true !done_write;
  Alcotest.(check (option int)) "read completes too" (Some 7) !read_result

let abd_rejects_bad_parameters () =
  let sim = Dsim.Sim.create () in
  Alcotest.check_raises "2f ≥ n" (Invalid_argument "Abd.create: need 0 ≤ 2f < n")
    (fun () -> ignore (Msgnet.Abd.create ~sim ~n:4 ~f:2 ~writer:0 ()))

let abd_atomicity_property =
  QCheck.Test.make ~name:"ABD: histories are atomic under random delays/crashes"
    ~count:200
    QCheck.(pair (Test_support.int_range 3 9) (int_bound 100000))
    (fun (n, seed) ->
      let f = (n - 1) / 2 in
      let rng = Dsim.Rng.create seed in
      let sim = Dsim.Sim.create ~seed () in
      let reg =
        Msgnet.Abd.create ~sim ~n ~f ~writer:0 ~min_delay:1.0 ~max_delay:20.0 ()
      in
      (* Writer issues a chain of writes; readers fire at random times;
         up to f random non-writer crashes. *)
      let rec write_chain k () =
        if k < 5 then
          Msgnet.Abd.write reg ~value:(100 + k) ~on_done:(fun () ->
              Dsim.Sim.schedule sim ~delay:(Dsim.Rng.float rng 10.0) (fun _ ->
                  write_chain (k + 1) ()))
      in
      write_chain 0 ();
      for _ = 1 to 8 do
        let proc = 1 + Dsim.Rng.int rng (n - 1) in
        Dsim.Sim.schedule sim ~delay:(Dsim.Rng.float rng 120.0) (fun _ ->
            Msgnet.Abd.read reg ~proc ~on_done:(fun _ -> ()))
      done;
      let crash_count = Dsim.Rng.int rng (f + 1) in
      let victims = Dsim.Rng.sample_without_replacement rng crash_count (n - 1) in
      List.iter
        (fun v ->
          Dsim.Sim.schedule sim ~delay:(Dsim.Rng.float rng 100.0) (fun _ ->
              Msgnet.Abd.crash reg (v + 1)))
        victims;
      drive sim;
      match Msgnet.Abd.History.check_atomic (Msgnet.Abd.History.events reg) with
      | None -> true
      | Some reason -> QCheck.Test.fail_reportf "n=%d: %s" n reason)

let ct_failure_free () =
  let inputs = [| 3; 1; 4; 1; 5 |] in
  let r = Msgnet.Ct_consensus.run ~n:5 ~f:2 ~inputs () in
  Alcotest.(check (option string)) "consensus" None
    (Agreement_check.kset ~k:1 ~inputs r.Msgnet.Ct_consensus.decisions);
  Alcotest.(check bool) "few phases" true (r.Msgnet.Ct_consensus.phases_used <= 3)

let ct_with_coordinator_crash () =
  (* p0 coordinates phase 0; crash it immediately so phase 1 must finish. *)
  let inputs = [| 9; 8; 7; 6; 5 |] in
  let r =
    Msgnet.Ct_consensus.run ~n:5 ~f:2 ~inputs ~crashes:[ (0, 0.5) ] ()
  in
  let live = Pset.remove 0 (Pset.full 5) in
  Pset.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "p%d decided" i)
        true
        (Option.is_some r.Msgnet.Ct_consensus.decisions.(i)))
    live;
  Alcotest.(check (option string)) "agreement among live" None
    (Agreement_check.kset
       ~allow_undecided:(Pset.singleton 0)
       ~k:1 ~inputs r.Msgnet.Ct_consensus.decisions)

let ct_property =
  QCheck.Test.make
    ~name:"CT consensus: agreement and termination with f < n/2 crashes"
    ~count:100
    QCheck.(pair (Test_support.int_range 3 9) (int_bound 100000))
    (fun (n, seed) ->
      let f = (n - 1) / 2 in
      let rng = Dsim.Rng.create seed in
      let inputs = Array.init n (fun i -> 50 + ((i * 17) mod 5)) in
      let crash_count = Dsim.Rng.int rng (f + 1) in
      let crashes =
        Dsim.Rng.sample_without_replacement rng crash_count n
        |> List.map (fun p -> (p, Dsim.Rng.float rng 60.0))
      in
      let r = Msgnet.Ct_consensus.run ~seed ~n ~f ~inputs ~crashes () in
      let crashed = Pset.of_list (List.map fst crashes) in
      match
        Agreement_check.kset ~allow_undecided:crashed ~k:1 ~inputs
          r.Msgnet.Ct_consensus.decisions
      with
      | None -> true
      | Some reason ->
        QCheck.Test.fail_reportf "n=%d f=%d crashes=%s: %s (phases=%d)" n f
          (Pset.to_string crashed) reason r.Msgnet.Ct_consensus.phases_used)

let heartbeat_detects_crash () =
  (* Standalone detector check through the consensus runner's plumbing:
     run with one crash and assert the run still terminates quickly, which
     requires the detector to have suspected the crashed coordinator. *)
  let inputs = [| 1; 2; 3 |] in
  let r = Msgnet.Ct_consensus.run ~n:3 ~f:1 ~inputs ~crashes:[ (0, 0.1) ] () in
  Alcotest.(check bool) "phase advanced past dead coordinator" true
    (r.Msgnet.Ct_consensus.phases_used >= 1);
  Alcotest.(check bool) "p1 decided" true
    (Option.is_some r.Msgnet.Ct_consensus.decisions.(1))

let tests =
  [
    Alcotest.test_case "ABD read-after-write" `Quick abd_sequential_read_after_write;
    Alcotest.test_case "ABD initial read" `Quick abd_initial_read;
    Alcotest.test_case "ABD tolerates f crashes" `Quick abd_tolerates_f_crashes;
    Alcotest.test_case "ABD parameter check" `Quick abd_rejects_bad_parameters;
    Alcotest.test_case "CT failure-free" `Quick ct_failure_free;
    Alcotest.test_case "CT coordinator crash" `Quick ct_with_coordinator_crash;
    Alcotest.test_case "heartbeat detects crash" `Quick heartbeat_detects_crash;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ abd_atomicity_property; ct_property ]
