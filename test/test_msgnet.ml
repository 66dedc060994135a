(* The asynchronous message-passing substrate and the item-3 round layer. *)

module Pset = Rrfd.Pset
module FI_read = Test_support.Oracle.Full_info

let network_delivers_everything () =
  let sim = Dsim.Sim.create ~seed:1 () in
  let got = ref [] in
  let deliver _ ~to_ ~from msg = got := (to_, from, msg) :: !got in
  let net = Msgnet.Network.create ~sim ~n:3 ~deliver () in
  Msgnet.Network.broadcast net ~from:0 "hello";
  Msgnet.Network.send net ~from:1 ~to_:2 "direct";
  Dsim.Sim.run sim;
  Alcotest.(check int) "4 deliveries" 4 (List.length !got);
  Alcotest.(check int) "sent counter" 4 (Msgnet.Network.messages_sent net);
  Alcotest.(check int) "delivered counter" 4 (Msgnet.Network.messages_delivered net)

let network_respects_crashes () =
  let sim = Dsim.Sim.create ~seed:1 () in
  let got = ref 0 in
  let deliver _ ~to_:_ ~from:_ _ = incr got in
  let net = Msgnet.Network.create ~sim ~n:3 ~deliver () in
  Msgnet.Network.crash net 0;
  Msgnet.Network.broadcast net ~from:0 "lost";
  Msgnet.Network.broadcast net ~from:1 "partial";
  Dsim.Sim.run sim;
  (* p1's copies to p0 are dropped at delivery time (p0 crashed). *)
  Alcotest.(check int) "only live receivers of live sender" 2 !got

(* A delivered broadcast's payload leaves the network's payload table:
   only the table's filler, the first payload ever broadcast, stays. *)
let[@inline never] broadcast_fresh net weak =
  let payload = Bytes.make 64 'y' in
  Weak.set weak 0 (Some payload);
  Msgnet.Network.broadcast net ~from:1 payload

let network_releases_payloads () =
  let sim = Dsim.Sim.create ~seed:1 () in
  let net =
    Msgnet.Network.create ~sim ~n:8 ~deliver:(fun _ ~to_:_ ~from:_ _ -> ()) ()
  in
  Msgnet.Network.broadcast net ~from:0 (Bytes.make 8 'f');
  let weak = Weak.create 1 in
  broadcast_fresh net weak;
  Dsim.Sim.run sim;
  Gc.full_major ();
  Alcotest.(check bool) "payload collected" false (Weak.check weak 0);
  Alcotest.(check int) "all delivered" 16 (Msgnet.Network.messages_delivered net)

(* No hook may schedule an event while a broadcast plans its copies: the
   copies' sequence numbers are taken as one block afterwards. *)
let network_rejects_scheduling_hooks () =
  let sim = Dsim.Sim.create ~seed:1 () in
  let adversary = Test_support.ok_exn (Msgnet.Adversary.of_spec "byz:m=1") in
  let tamper ~behaviour:_ ~now:_ ~from:_ ~to_:_ _ =
    Dsim.Sim.schedule sim ~delay:1.0 ignore;
    None
  in
  let net =
    Msgnet.Network.create ~sim ~n:8 ~adversary ~tamper
      ~deliver:(fun _ ~to_:_ ~from:_ () -> ())
      ()
  in
  Alcotest.check_raises "hook scheduled"
    (Invalid_argument "Network.broadcast: a hook scheduled an event mid-broadcast")
    (fun () -> Msgnet.Network.broadcast net ~from:0 ())

let network_delay_order_can_invert () =
  (* With a wide delay window, a later send may arrive earlier. *)
  let sim = Dsim.Sim.create ~seed:3 () in
  let log = ref [] in
  let deliver _ ~to_:_ ~from:_ msg = log := msg :: !log in
  let net = Msgnet.Network.create ~sim ~n:2 ~min_delay:1.0 ~max_delay:50.0 ~deliver () in
  for i = 0 to 19 do
    Msgnet.Network.send net ~from:0 ~to_:1 i
  done;
  Dsim.Sim.run sim;
  let arrival = List.rev !log in
  Alcotest.(check bool) "not FIFO" true (arrival <> List.sort compare arrival)

let round_layer_completes_and_satisfies_p3 =
  QCheck.Test.make
    ~name:"E2: round layer induces predicate-3 histories and all live finish"
    ~count:200
    QCheck.(
      triple (Test_support.int_range 2 10) (int_bound 100000)
        (Test_support.int_range 1 5))
    (fun (n, seed, rounds) ->
      let rng = Dsim.Rng.create seed in
      let f = Dsim.Rng.int rng n in
      let crash_count = Dsim.Rng.int rng (f + 1) in
      let crashes =
        Dsim.Rng.sample_without_replacement rng crash_count n
        |> List.map (fun p -> (p, Dsim.Rng.float rng 30.0))
      in
      let inputs = Array.init n Fun.id in
      let result =
        Msgnet.Round_layer.run ~seed ~crashes ~n ~f ~rounds
          ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
          ()
      in
      let live_ok =
        Array.for_all Fun.id
          (Array.mapi
             (fun i completed ->
               Pset.mem i result.Msgnet.Round_layer.crashed
               || completed = rounds)
             result.Msgnet.Round_layer.completed)
      in
      if not live_ok then QCheck.Test.fail_reportf "a live process stalled"
      else
        match
          Rrfd.Predicate.explain
            (Rrfd.Predicate.async_resilient ~f)
            result.Msgnet.Round_layer.induced
        with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d: %s" n f reason)

let round_layer_full_information_recreates_missed_rounds =
  (* Item 3, "A implements N": running full-information, a process that
     receives p_j's round-r view can recreate every earlier message of p_j
     it missed: the view contains p_j's value for all earlier rounds. *)
  QCheck.Test.make ~name:"item 3: full information recreates missed messages"
    ~count:100
    QCheck.(pair (Test_support.int_range 3 8) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Dsim.Rng.create seed in
      let f = 1 + Dsim.Rng.int rng (n - 1) in
      let inputs = Array.init n (fun i -> i * 11) in
      let result =
        Msgnet.Round_layer.run ~seed ~n ~f ~rounds:3
          ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
          ()
      in
      (* Every completed process's final view knows the input of every
         process it ever heard from, directly or transitively. *)
      let ok = ref true in
      Array.iteri
        (fun i completed ->
          if completed = 3 then begin
            let view_opt = result.Msgnet.Round_layer.decisions.(i) in
            match view_opt with
            | None -> ok := false
            | Some view ->
              let heard = FI_read.heard_from_last_round view in
              Pset.iter
                (fun j ->
                  if not (FI_read.knows_input_of view j) then ok := false)
                heard
          end)
        result.Msgnet.Round_layer.completed;
      !ok)

(* Every adversary atom's schedule, byte-identical to the list- and
   hashtable-based round layer the fixture was generated from. *)
let round_layer_schedule_pin () =
  Test_support.check_fixture ~what:"round-layer schedule"
    ~file:"round_layer.expected"
    (Test_support.Round_layer_fixture.render ())

(* Chandra-Toueg and heartbeat event order, byte-identical to the
   per-copy network the fixture was generated from: exact decision and
   drain times and every network counter. *)
let msgnet_timing_pin () =
  Test_support.check_fixture ~what:"msgnet timing"
    ~file:"msgnet_timing.expected"
    (Test_support.Msgnet_timing_fixture.render ())

let round_layer_rejects_empty_runs () =
  let run rounds () =
    ignore
      (Msgnet.Round_layer.run ~n:3 ~f:1 ~rounds
         ~algorithm:(Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct 3))
         ()
        : Rrfd.Full_info.t Msgnet.Round_layer.result)
  in
  List.iter
    (fun rounds ->
      Alcotest.check_raises
        (Printf.sprintf "rounds=%d" rounds)
        (Invalid_argument "Round_layer.run: need rounds ≥ 1")
        (run rounds))
    [ 0; -2 ]

(* The list-walking plan the flattened arrays replaced, kept as the
   model: drops short-circuit in atom order, then spikes and reorders,
   then duplications, then one redraw per extra copy. *)
let reference_plan policy rng ~now ~from ~to_ ~delay ~redraw =
  let open Msgnet.Adversary in
  let cuts = function
    | Split_at k -> from < k <> (to_ < k)
    | Blocks bs ->
      let find p = List.find_opt (fun b -> Pset.mem p b) bs in
      (match (find from, find to_) with
      | Some bf, Some bt -> not (Pset.equal bf bt)
      | _ -> false)
  in
  let partitioned =
    List.exists
      (function
        | Partition { at; heal; blocks } -> now >= at && now < heal && cuts blocks
        | _ -> false)
      policy
  in
  if partitioned then []
  else if
    List.exists
      (function Drop { p } -> Dsim.Rng.float rng 1.0 < p | _ -> false)
      policy
  then []
  else
    let delay =
      List.fold_left
        (fun d -> function
          | Spike { p; factor } ->
            if Dsim.Rng.float rng 1.0 < p then d *. factor else d
          | Reorder { p; window } ->
            let jitter = Dsim.Rng.float rng window in
            if Dsim.Rng.float rng 1.0 < p then d +. jitter else d
          | _ -> d)
        delay policy
    in
    let extras =
      List.fold_left
        (fun acc -> function
          | Duplicate { p; copies } ->
            let k = 1 + Dsim.Rng.int rng copies in
            if Dsim.Rng.float rng 1.0 < p then acc + k else acc
          | _ -> acc)
        0 policy
    in
    delay :: List.init extras (fun _ -> redraw ())

let atom_gen =
  let open QCheck.Gen in
  let pct = map (fun k -> float_of_int k /. 100.0) (int_bound 100) in
  let small = map float_of_int (int_range 1 20) in
  oneof
    [
      map (fun p -> Msgnet.Adversary.Drop { p }) pct;
      map2 (fun p copies -> Msgnet.Adversary.Duplicate { p; copies }) pct
        (int_range 1 3);
      map2 (fun p factor -> Msgnet.Adversary.Spike { p; factor }) pct small;
      map2 (fun p window -> Msgnet.Adversary.Reorder { p; window }) pct small;
      map3
        (fun at len k ->
          Msgnet.Adversary.Partition
            { at; heal = at +. len; blocks = Split_at k })
        small small (int_range 1 4);
      map2
        (fun m forge ->
          Msgnet.Adversary.Byz
            {
              members = Pset.singleton m;
              behaviour = { equivocate = true; corrupt = false; forge };
            })
        (int_bound 4) bool;
    ]

let plan_into_matches_reference =
  QCheck.Test.make ~name:"plan_into: same copies and draws as the list plan"
    ~count:300
    QCheck.(
      pair
        (make ~print:(fun l -> Printf.sprintf "%d atoms" (List.length l))
           Gen.(list_size (int_bound 5) atom_gen))
        (int_bound 100000))
    (fun (atoms, seed) ->
      let t = Msgnet.Adversary.make atoms in
      let out = Float.Array.create (Msgnet.Adversary.max_copies t) in
      let model_rng = Dsim.Rng.create seed and rng = Dsim.Rng.create seed in
      (* Each side's redraws come from its own copy of one stream. *)
      let redraws () =
        let r = Dsim.Rng.create (seed + 1) in
        fun () -> 1.0 +. Dsim.Rng.float r 9.0
      in
      let model_redraw = redraws () and redraw = redraws () in
      List.for_all
        (fun j ->
          let now = float_of_int (j * 3) and from = j mod 5 in
          let to_ = (from + 1 + (j mod 3)) mod 5 in
          let delay = float_of_int (1 + (j mod 7)) in
          let expected =
            reference_plan atoms model_rng ~now ~from ~to_ ~delay
              ~redraw:model_redraw
          in
          let k =
            Float.Array.set out 0 delay;
            Msgnet.Adversary.plan_into t rng
              ~now:(fun () -> now)
              ~from ~to_
              ~redraw:(fun out k -> Float.Array.set out k (redraw ()))
              out
          in
          expected = List.init k (Float.Array.get out)
          && Msgnet.Adversary.plan t (Dsim.Rng.copy rng) ~now ~from ~to_ ~delay
               ~redraw:(fun () -> 5.0)
             = reference_plan atoms (Dsim.Rng.copy model_rng) ~now ~from ~to_
                 ~delay ~redraw:(fun () -> 5.0)
          && Dsim.Rng.int64 (Dsim.Rng.copy rng)
             = Dsim.Rng.int64 (Dsim.Rng.copy model_rng))
        (List.init 25 Fun.id))

(* Rows past the initial capacity: [note] grows them, and reads, counts
   and the extracted history still see every round. *)
let heard_of_grows () =
  let n = 3 and rounds = 11 in
  let ho = Msgnet.Heard_of.create ~n in
  let heard r = Pset.of_list [ 0; r mod n ] in
  for r = 1 to rounds do
    Msgnet.Heard_of.note ho 0 ~round:r
      ~lied:(Pset.singleton (r mod n))
      ~heard:(heard r) ()
  done;
  Msgnet.Heard_of.note ho 2 ~round:1 ~heard:(Pset.full n) ();
  Alcotest.(check int) "completed p0" rounds (Msgnet.Heard_of.completed ho 0);
  Alcotest.(check int) "completed p1" 0 (Msgnet.Heard_of.completed ho 1);
  Alcotest.(check int) "rounds" rounds (Msgnet.Heard_of.rounds ho);
  for r = 1 to rounds do
    Alcotest.(check (option Test_support.pset_t))
      (Printf.sprintf "heard r%d" r) (Some (heard r))
      (Msgnet.Heard_of.heard ho ~proc:0 ~round:r);
    Alcotest.(check (option Test_support.pset_t))
      (Printf.sprintf "lied r%d" r)
      (Some (Pset.singleton (r mod n)))
      (Msgnet.Heard_of.lied ho ~proc:0 ~round:r)
  done;
  Alcotest.(check (option Test_support.pset_t)) "past the end" None
    (Msgnet.Heard_of.heard ho ~proc:0 ~round:(rounds + 1));
  let expected =
    Rrfd.Fault_history.of_rounds ~n
      (List.init rounds (fun i ->
           let r = i + 1 in
           [|
             Pset.diff (Pset.full n) (heard r);
             Pset.empty;
             Pset.empty;
           |]))
  in
  Alcotest.check Test_support.history_t "to_history" expected
    (Msgnet.Heard_of.to_history ho)

(* Broadcast runs against the per-copy reference network: the same
   seeded workload drives both on simulators of the same seed, and every
   delivery (exact time, sender, receiver, payload), every counter and
   the signed log must agree.  Deliveries spawn further broadcasts and
   sends until a budget runs out, processes crash while copies are in
   flight, and Byzantine members tamper through a hook with its own
   stream. *)
let policies =
  [|
    "none";
    "drop:p=20";
    "dup:p=30,copies=3";
    "spike:p=20,factor=8";
    "reorder:p=40,window=12";
    "partition:at=5,heal=30,left=2";
    "byz:m=2,equiv=1";
    "drop:p=15+dup:p=15,copies=2+spike:p=10+reorder:p=25";
    "byz:m=1,equiv=1+dup:p=20+drop:p=10";
  |]

type 'net side = {
  net : 'net;
  mutable budget : int;
  mutable deliveries : (float * int * int * int) list;
}

let drive ~n ~seed ~policy ~self ~crashes ~create ~send ~broadcast ~crash =
  let sim = Dsim.Sim.create ~seed () in
  let adversary = Test_support.ok_exn (Msgnet.Adversary.of_spec policy) in
  let lies = Dsim.Rng.create (seed + 1) in
  let tamper ~behaviour:_ ~now:_ ~from:_ ~to_ msg =
    if Dsim.Rng.bool lies then Some (msg + 1000 + to_) else None
  in
  let side = ref None in
  let get () = Option.get !side in
  let deliver sim ~to_ ~from msg =
    let s = get () in
    s.deliveries <- (Dsim.Sim.now sim, from, to_, msg) :: s.deliveries;
    if s.budget > 0 then begin
      s.budget <- s.budget - 1;
      match (msg + to_) mod 4 with
      | 0 -> broadcast s.net ~from:to_ ~self (msg + 1)
      | 1 -> send s.net ~from:to_ ~to_:from (msg + 2)
      | _ -> ()
    end
  in
  let net = create ~sim ~n ~adversary ~tamper ~deliver in
  side := Some { net; budget = 3 * n; deliveries = [] };
  List.iter
    (fun (p, time) -> Dsim.Sim.schedule_at sim ~time (fun _ -> crash net p))
    crashes;
  for p = 0 to Int.min 2 (n - 1) do
    Dsim.Sim.schedule_at sim ~time:(float_of_int p) (fun _ ->
        broadcast net ~from:p ~self (10 * p))
  done;
  Dsim.Sim.run sim;
  ((get ()).deliveries, Dsim.Sim.now sim)

let broadcast_runs_match_per_copy_network =
  QCheck.Test.make ~name:"broadcast runs deliver exactly as per-copy sends"
    ~count:150
    QCheck.(
      quad (Test_support.int_range 1 70) (int_bound 100000)
        (int_bound (Array.length policies - 1))
        (pair bool (small_list (pair small_nat (int_bound 30)))))
    (fun (n, seed, which, (self, crashes)) ->
      let policy = policies.(which) in
      let crashes = List.map (fun (p, t) -> (p mod n, float_of_int t)) crashes in
      let module N = Msgnet.Network in
      let module R = Test_support.Oracle.Network in
      let runs, runs_end =
        let net = ref None in
        let got, t =
          drive ~n ~seed ~policy ~self ~crashes
            ~create:(fun ~sim ~n ~adversary ~tamper ~deliver ->
              let t =
                N.create ~sim ~n ~adversary ~tamper ~log_sends:true ~deliver ()
              in
              net := Some t;
              t)
            ~send:(fun t ~from ~to_ m -> N.send t ~from ~to_ m)
            ~broadcast:(fun t ~from ~self m -> N.broadcast t ~from ~self m)
            ~crash:N.crash
        in
        let t' = Option.get !net in
        ( ( got,
            [
              N.messages_sent t';
              N.messages_delivered t';
              N.messages_dropped t';
              N.messages_duplicated t';
              N.messages_tampered t';
              N.messages_lost_to_crash t';
            ],
            N.signed_log t' ),
          t )
      in
      let copies, copies_end =
        let net = ref None in
        let got, t =
          drive ~n ~seed ~policy ~self ~crashes
            ~create:(fun ~sim ~n ~adversary ~tamper ~deliver ->
              let t =
                R.create ~sim ~n ~adversary ~tamper ~log_sends:true ~deliver ()
              in
              net := Some t;
              t)
            ~send:(fun t ~from ~to_ m -> R.send t ~from ~to_ m)
            ~broadcast:(fun t ~from ~self m -> R.broadcast t ~from ~self m)
            ~crash:R.crash
        in
        let t' = Option.get !net in
        ((got, R.counters t', R.signed_log t'), t)
      in
      runs = copies && Float.equal runs_end copies_end)

let tests =
  [
    Alcotest.test_case "network delivers" `Quick network_delivers_everything;
    Alcotest.test_case "network crashes" `Quick network_respects_crashes;
    Alcotest.test_case "network reorders" `Quick network_delay_order_can_invert;
    Alcotest.test_case "network releases payloads" `Quick
      network_releases_payloads;
    Alcotest.test_case "network rejects scheduling hooks" `Quick
      network_rejects_scheduling_hooks;
    Alcotest.test_case "round-layer schedule pin" `Quick
      round_layer_schedule_pin;
    Alcotest.test_case "msgnet timing pin" `Quick msgnet_timing_pin;
    Alcotest.test_case "round layer rejects rounds < 1" `Quick
      round_layer_rejects_empty_runs;
    Alcotest.test_case "heard-of rows grow" `Quick heard_of_grows;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        round_layer_completes_and_satisfies_p3;
        round_layer_full_information_recreates_missed_rounds;
        plan_into_matches_reference;
        broadcast_runs_match_per_copy_network;
      ]
