(* The fault-injection layer: heard-of extraction well-formedness, seed and
   -j determinism, the differential oracle across the whole adversary grid,
   protocol robustness under sustained loss / healing partitions /
   duplication floods, and the network's crash-accounting identity. *)

module Pset = Rrfd.Pset

let grid = Experiments.E21_faultnet.grid

let adversary spec =
  match Msgnet.Adversary.of_spec spec with
  | Ok a -> a
  | Error e -> Alcotest.fail e

let full_info_run ~seed ~spec ~n ~f ~rounds =
  Msgnet.Round_layer.run ~seed ~adversary:(adversary spec) ~n ~f ~rounds
    ~algorithm:(Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n))
    ()

(* Spec parsing: every grid entry parses, junk does not. *)
let spec_parsing () =
  List.iter (fun spec -> ignore (adversary spec)) grid;
  let bad s =
    match Msgnet.Adversary.of_spec s with
    | Ok _ -> Alcotest.failf "spec %S should not parse" s
    | Error _ -> ()
  in
  bad "gremlins:p=10";
  bad "drop:q=10";
  bad "partition:at=50,heal=10";
  Alcotest.(check bool) "none is noop" true
    (Msgnet.Adversary.is_noop (adversary "none"))

(* Extraction well-formedness: the heard-of record is prefix-closed (heard
   sets exist exactly for rounds 1..completed) and always contains the
   process itself, so the induced history never has i ∈ D(i,r). *)
let extraction_well_formed =
  QCheck.Test.make
    ~name:"extracted histories are prefix-closed and never self-suspect"
    ~count:120
    QCheck.(
      triple (Test_support.int_range 3 7) (int_bound 1_000_000)
        (int_bound 1000))
    (fun (n, seed, which) ->
      let spec = List.nth grid (which mod List.length grid) in
      let f = (n - 1) / 2 in
      let rounds = 3 in
      let r = full_info_run ~seed ~spec ~n ~f ~rounds in
      let ho = r.Msgnet.Round_layer.heard_of in
      for i = 0 to n - 1 do
        let c = Msgnet.Heard_of.completed ho i in
        for round = 1 to rounds do
          match Msgnet.Heard_of.heard ho ~proc:i ~round with
          | Some h ->
            if round > c then
              QCheck.Test.fail_reportf
                "%s: p%d has a heard set for round %d beyond completed=%d"
                spec i round c;
            if not (Pset.mem i h) then
              QCheck.Test.fail_reportf "%s: p%d did not hear itself in round %d"
                spec i round
          | None ->
            if round <= c then
              QCheck.Test.fail_reportf
                "%s: p%d completed %d rounds but round %d is unrecorded" spec i
                c round
        done
      done;
      let hist = r.Msgnet.Round_layer.induced in
      for round = 1 to Rrfd.Fault_history.rounds hist do
        for i = 0 to n - 1 do
          if Pset.mem i (Rrfd.Fault_history.d hist ~proc:i ~round) then
            QCheck.Test.fail_reportf "%s: p%d ∈ D(p%d,%d)" spec i i round
        done
      done;
      true)

(* Determinism: the adversary's damage schedule is a pure function of the
   seed — same seed twice gives the same history, counters and decisions. *)
let seed_determinism =
  QCheck.Test.make ~name:"adversary schedules are deterministic per seed"
    ~count:60
    QCheck.(
      triple (Test_support.int_range 3 6) (int_bound 1_000_000)
        (int_bound 1000))
    (fun (n, seed, which) ->
      let spec = List.nth grid (which mod List.length grid) in
      let f = (n - 1) / 2 in
      let a = full_info_run ~seed ~spec ~n ~f ~rounds:3 in
      let b = full_info_run ~seed ~spec ~n ~f ~rounds:3 in
      Rrfd.Fault_history.equal a.Msgnet.Round_layer.induced
        b.Msgnet.Round_layer.induced
      && a.Msgnet.Round_layer.messages_sent = b.Msgnet.Round_layer.messages_sent
      && a.Msgnet.Round_layer.messages_dropped
         = b.Msgnet.Round_layer.messages_dropped
      && a.Msgnet.Round_layer.messages_duplicated
         = b.Msgnet.Round_layer.messages_duplicated)

(* -j invariance: trials fanned over worker domains through
   Runtime.Campaign extract the same per-trial histories as a serial run —
   the contract behind the @faultnet-smoke byte-compare. *)
let campaign_jobs_invariance () =
  let spec = "drop:p=25+dup:p=15" in
  let adversary = adversary spec in
  let trial ~trial:_ ~rng =
    let seed = Dsim.Rng.bits30 rng in
    let r =
      Msgnet.Round_layer.run ~seed ~adversary ~n:5 ~f:2 ~rounds:3
        ~algorithm:
          (Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct 5))
        ()
    in
    Rrfd.Fault_history.to_string_compact r.Msgnet.Round_layer.induced
  in
  let serial = Runtime.Campaign.run ~jobs:1 ~seed:4 ~trials:16 trial in
  let parallel = Runtime.Campaign.run ~jobs:2 ~seed:4 ~trials:16 trial in
  Alcotest.(check (array string)) "histories identical at -j 1 and -j 2"
    serial parallel

(* The differential oracle over the full matrix: for every n in 3..6 and
   every grid policy, replaying the extracted history through the abstract
   engine reproduces the network's decisions, and the history satisfies the
   layer's guarantee P3 (|D| ≤ f). *)
let differential_matrix () =
  for n = 3 to 6 do
    let f = (n - 1) / 2 in
    List.iteri
      (fun idx spec ->
        let algorithm =
          Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n)
        in
        let ex =
          Msgnet.Round_layer.execution
            (Msgnet.Round_layer.run ~seed:(100 + (17 * idx) + n)
               ~adversary:(adversary spec) ~n ~f ~rounds:4 ~algorithm ())
        in
        let induced = ex.Rrfd.Substrate.induced in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d %s: replay matches" n spec)
          true
          (Rrfd.Substrate.agrees ~equal:Rrfd.Full_info.equal ex
             ~replayed:(Msgnet.Heard_of.replay_decisions ~algorithm induced));
        Alcotest.(check bool)
          (Printf.sprintf "n=%d %s: all processes completed" n spec)
          true
          (Array.for_all (( = ) 4) ex.Rrfd.Substrate.completed);
        let held = Msgnet.Heard_of.classify ~f induced in
        Alcotest.(check bool)
          (Printf.sprintf "n=%d %s: P3 holds" n spec)
          true (List.assoc "P3" held))
      grid
  done

(* Heartbeats under sustained loss and under a healing partition: adaptive
   timeouts must drain every live-live suspicion by the horizon. *)
let heartbeat_converges spec seed () =
  let n = 5 in
  let sim = Dsim.Sim.create ~seed () in
  let hb = ref None in
  let deliver _ ~to_ ~from () =
    Msgnet.Heartbeat.beat (Option.get !hb) ~at:to_ ~from
  in
  let net = Msgnet.Network.create ~sim ~n ~adversary:(adversary spec) ~deliver () in
  hb :=
    Some
      (Msgnet.Heartbeat.create ~sim ~n
         ~send_heartbeat:(fun ~from ->
           Msgnet.Network.broadcast net ~from ~self:false ())
         ~interval:3.0 ~initial_timeout:10.0 ~timeout_increment:10.0
         ~horizon:400.0 ());
  Dsim.Sim.run sim;
  let hb = Option.get !hb in
  Alcotest.(check bool)
    (Printf.sprintf "suspicions drained under %s" spec)
    true
    (Msgnet.Heartbeat.live_suspicions hb ~among:(Pset.full n) = []);
  if String.length spec >= 9 && String.sub spec 0 9 = "partition" then
    Alcotest.(check bool) "partition caused (then retracted) suspicions" true
      (Msgnet.Heartbeat.false_suspicions hb > 0)

(* CT consensus terminates and stays safe under the same conditions. *)
let ct_converges spec seed () =
  let n = 5 and f = 2 in
  let inputs = Array.init n (fun i -> i mod 3) in
  let r =
    Msgnet.Ct_consensus.run ~seed ~adversary:(adversary spec) ~n ~f ~inputs ()
  in
  Array.iteri
    (fun i d ->
      if d = None then
        Alcotest.failf "p%d undecided under %s (phases=%d)" i spec
          r.Msgnet.Ct_consensus.phases_used)
    r.Msgnet.Ct_consensus.decisions;
  match
    Tasks.Agreement.check ~k:1 ~inputs r.Msgnet.Ct_consensus.decisions
  with
  | None -> ()
  | Some reason -> Alcotest.failf "agreement violated under %s: %s" spec reason

(* Regression: adopted timestamps must strictly outrank initial ones.
   Phases count from 0, so [ts <- phase] (instead of [phase + 1]) let this
   seed decide both 0 and 1 under 30% loss: c0 locked 0 at phase 0 with a
   majority of acks, but when c1 read its own majority at phase 1 the
   acked estimates tied at ts 0 with p1's never-adopted input, and the
   tie-break proposed 1. *)
let phase0_lock_regression () = ct_converges "drop:p=30" 234049724 ()

(* Duplication floods must not inflate quorums: CT stays safe and ABD
   atomic when most messages arrive in quadruplicate. *)
let duplication_safety () =
  let spec = "dup:p=60,copies=3" in
  ct_converges spec 11 ();
  let sim = Dsim.Sim.create ~seed:12 () in
  let reg =
    Msgnet.Abd.create ~sim ~n:5 ~f:2 ~writer:0 ~adversary:(adversary spec) ()
  in
  Msgnet.Abd.write reg ~value:1 ~on_done:(fun () ->
      Msgnet.Abd.write reg ~value:2 ~on_done:(fun () -> ()));
  List.iteri
    (fun i p ->
      Dsim.Sim.schedule sim
        ~delay:(3.0 +. (5.0 *. float_of_int i))
        (fun _ -> Msgnet.Abd.read reg ~proc:p ~on_done:(fun _ -> ())))
    [ 1; 2; 3; 4 ];
  Dsim.Sim.run sim;
  match Msgnet.Abd.History.check_atomic (Msgnet.Abd.History.events reg) with
  | None -> ()
  | Some reason -> Alcotest.failf "ABD atomicity violated: %s" reason

(* Crash accounting: the documented counter identity
   sent + duplicated = delivered + dropped + lost_to_crash holds in a
   drained simulation, and sends from a crashed process are uncounted
   no-ops. *)
let crash_accounting () =
  let sim = Dsim.Sim.create ~seed:5 () in
  let net =
    Msgnet.Network.create ~sim ~n:4
      ~adversary:(adversary "drop:p=30+dup:p=30,copies=2")
      ~deliver:(fun _ ~to_:_ ~from:_ () -> ())
      ()
  in
  for _ = 1 to 10 do
    Msgnet.Network.broadcast net ~from:0 ();
    Msgnet.Network.broadcast net ~from:1 ()
  done;
  Dsim.Sim.schedule sim ~delay:5.0 (fun _ ->
      Msgnet.Network.crash net 2;
      (* Post-crash sends are no-ops and must not move any counter. *)
      let before = Msgnet.Network.messages_sent net in
      Msgnet.Network.broadcast net ~from:2 ();
      Msgnet.Network.send net ~from:2 ~to_:0 ();
      Alcotest.(check int) "crashed sender's sends uncounted" before
        (Msgnet.Network.messages_sent net);
      for _ = 1 to 10 do
        Msgnet.Network.broadcast net ~from:3 ()
      done);
  Dsim.Sim.run sim;
  let sent = Msgnet.Network.messages_sent net
  and delivered = Msgnet.Network.messages_delivered net
  and dropped = Msgnet.Network.messages_dropped net
  and duplicated = Msgnet.Network.messages_duplicated net
  and lost = Msgnet.Network.messages_lost_to_crash net in
  Alcotest.(check int) "sent + duplicated = delivered + dropped + lost"
    (sent + duplicated)
    (delivered + dropped + lost);
  Alcotest.(check bool) "crash actually cost deliveries" true (lost > 0);
  Alcotest.(check bool) "adversary actually dropped" true (dropped > 0);
  Alcotest.(check bool) "adversary actually duplicated" true (duplicated > 0)

(* The round layer has no global round clock, so its uniform view reports
   a decided process's last completed round as its decision round.  A
   crash makes [completed] ragged, so the crashed process's decision
   round differs from the survivors'. *)
let execution_decision_rounds () =
  let n = 5 and f = 2 in
  let r =
    Msgnet.Round_layer.run ~seed:9 ~crashes:[ (4, 12.0) ]
      ~adversary:(adversary "drop:p=20") ~n ~f ~rounds:4
      ~algorithm:(Rrfd.Kset.one_round ~inputs:(Tasks.Inputs.distinct n))
      ()
  in
  let ex = Msgnet.Round_layer.execution r in
  Alcotest.(check (array (option int)))
    "decision round = completed, for decided processes"
    (Array.mapi
       (fun i d -> Option.map (fun _ -> ex.Rrfd.Substrate.completed.(i)) d)
       ex.Rrfd.Substrate.decisions)
    ex.Rrfd.Substrate.decision_rounds;
  Alcotest.(check bool) "everyone decided" true
    (Array.for_all Option.is_some ex.Rrfd.Substrate.decisions);
  Alcotest.(check bool) "the crash left completed ragged" true
    (ex.Rrfd.Substrate.completed.(4) < ex.Rrfd.Substrate.completed.(0))

let tests =
  [
    Alcotest.test_case "adversary spec parsing" `Quick spec_parsing;
    Alcotest.test_case "campaign -j invariance" `Quick campaign_jobs_invariance;
    Alcotest.test_case "differential matrix (n×policy)" `Slow
      differential_matrix;
    Alcotest.test_case "heartbeat converges under loss" `Quick
      (heartbeat_converges "drop:p=30" 31);
    Alcotest.test_case "heartbeat converges after partition heals" `Quick
      (heartbeat_converges "partition:at=10,heal=120,left=2" 32);
    Alcotest.test_case "CT terminates under loss" `Quick
      (ct_converges "drop:p=30" 33);
    Alcotest.test_case "CT terminates across a healing partition" `Quick
      (ct_converges "partition:at=5,heal=60,left=2" 34);
    Alcotest.test_case "CT phase-0 lock regression" `Quick
      phase0_lock_regression;
    Alcotest.test_case "duplication cannot inflate quorums" `Quick
      duplication_safety;
    Alcotest.test_case "crash accounting identity" `Quick crash_accounting;
    Alcotest.test_case "execution decision rounds = completed" `Quick
      execution_decision_rounds;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ extraction_well_formed; seed_determinism ]
