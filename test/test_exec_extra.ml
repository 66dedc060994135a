(* Additional executor, heartbeat and network unit coverage. *)

module IntExec = Shm.Exec.Make (struct
  type t = int
end)

let fixed_schedule_falls_back () =
  (* A Fixed schedule naming only p0 must still run p1 to completion. *)
  let outcome =
    IntExec.run ~n_procs:2 ~n_locs:2 ~schedule:(Shm.Exec.Fixed [ 0; 0 ])
      (fun ~proc ->
        IntExec.write proc 1;
        ignore (IntExec.read ((proc + 1) mod 2)))
  in
  Alcotest.(check int) "all steps ran" 4 outcome.IntExec.steps

let network_explicit_delay_ordering () =
  let sim = Dsim.Sim.create ~seed:1 () in
  let log = ref [] in
  let deliver _ ~to_:_ ~from:_ msg = log := msg :: !log in
  let net = Msgnet.Network.create ~sim ~n:2 ~deliver () in
  Msgnet.Network.send net ~from:0 ~to_:1 ~delay:10.0 "slow";
  Msgnet.Network.send net ~from:0 ~to_:1 ~delay:1.0 "fast";
  Dsim.Sim.run sim;
  Alcotest.(check (list string)) "explicit delays respected" [ "slow"; "fast" ] !log

let network_rejects_out_of_range () =
  let sim = Dsim.Sim.create () in
  let net = Msgnet.Network.create ~sim ~n:2 ~deliver:(fun _ ~to_:_ ~from:_ _ -> ()) () in
  Alcotest.check_raises "bad receiver"
    (Invalid_argument "Network.send: process out of range") (fun () ->
      Msgnet.Network.send net ~from:0 ~to_:5 "x")

let engine_max_rounds_without_decisions () =
  let never_decides : (unit, unit, unit) Rrfd.Algorithm.t =
    {
      name = "never";
      init = (fun ~n:_ _ -> ());
      emit = (fun () ~round:_ -> ());
      deliver = (fun () ~round:_ ~view:_ -> ());
      decide = (fun () -> None);
    }
  in
  let outcome =
    Rrfd.Engine.run ~n:3 ~max_rounds:5 ~algorithm:never_decides
      ~detector:Rrfd.Detector.none ()
  in
  Alcotest.(check int) "ran to max" 5 outcome.Rrfd.Substrate.rounds_used;
  Alcotest.(check (array (option unit))) "nobody decided"
    [| None; None; None |]
    outcome.Rrfd.Substrate.decisions

let detector_of_schedule_after () =
  let s = Rrfd.Pset.of_list in
  let after = [| s [ 1 ]; s []; s [] |] in
  let det = Rrfd.Detector.of_schedule ~after [ [| s []; s []; s [] |] ] in
  let h = Rrfd.Fault_history.empty ~n:3 in
  let r1 = Rrfd.Detector.next det h in
  let h = Rrfd.Fault_history.append h r1 in
  let r2 = Rrfd.Detector.next det h in
  Alcotest.(check bool) "round 1 from schedule" true (Rrfd.Pset.is_empty r1.(0));
  Alcotest.(check bool) "round 2 from after" true (Rrfd.Pset.equal r2.(0) (s [ 1 ]))

(* A pinned history replays round for round, then goes failure-free:
   the engine's history under [of_history h] is [h] padded with empty
   rounds. *)
let detector_of_history_pads () =
  let s = Rrfd.Pset.of_list in
  let pinned = [ [| s [ 1 ]; s []; s [ 0 ] |]; [| s []; s [ 2 ]; s [] |] ] in
  let h = Rrfd.Fault_history.of_rounds ~n:3 pinned in
  let outcome =
    Rrfd.Engine.run ~n:3 ~max_rounds:4 ~stop_when_decided:false
      ~algorithm:(Rrfd.Kset.one_round ~inputs:[| 0; 1; 2 |])
      ~detector:(Rrfd.Detector.of_history h) ()
  in
  let quiet = [| s []; s []; s [] |] in
  Alcotest.check Test_support.history_t "pinned rounds, then failure-free"
    (Rrfd.Fault_history.of_rounds ~n:3
       (pinned @ [ quiet; quiet ]))
    outcome.Rrfd.Substrate.induced

let tests =
  [
    Alcotest.test_case "fixed schedule fallback" `Quick fixed_schedule_falls_back;
    Alcotest.test_case "network explicit delays" `Quick network_explicit_delay_ordering;
    Alcotest.test_case "network range check" `Quick network_rejects_out_of_range;
    Alcotest.test_case "engine max rounds" `Quick engine_max_rounds_without_decisions;
    Alcotest.test_case "schedule detector after" `Quick detector_of_schedule_after;
    Alcotest.test_case "history detector pads failure-free" `Quick
      detector_of_history_pads;
  ]
