(* Allocation smoke gate: proves the engine's steady-state rounds, the
   simulator's event loop and a constructive detector's queries allocate
   zero minor-heap words, and that a fresh simulator reuses the queue
   storage of the last drained one.

   Method: run the same fixture twice with identical per-run setup —
   same n, same [max_rounds] (so the history arena is sized identically
   and never grows), same algorithm and detector — varying only how many
   steady-state rounds execute before a stopping predicate ends the run.
   Everything that allocates per run (states, decision arrays, the first
   round's emit-buffer sizing, the algorithm's round-1 transitions, the
   harness's own [Gc.minor_words] boxing) is present in both runs and
   cancels; the only difference is the extra steady-state rounds.  If
   those rounds allocate a single word, the two [Gc.minor_words] deltas
   differ and the gate fails.

   This is exact, not statistical: allocation on a fixed seed-free path
   is deterministic, so the deltas are compared with [=], no tolerance.

   Scope: universes small enough for the immediate Pset representation
   (n ≤ 62).  Wide universes store fault sets as heap arrays, so set
   algebra ([Pset.diff] inside [View.unsafe_set]) inherently allocates
   there; the hot-path discipline (DESIGN.md) claims zero allocation for
   the immediate representation only.

   Wired to the [@alloc-smoke] dune alias; CI runs it in the smoke
   matrix next to the determinism byte-compares. *)

let failures = ref 0

(* A predicate whose only job is to stop the run after [k] rounds.  The
   engine treats a predicate report as a violation and halts; returning a
   preallocated [Some] keeps the stop itself off the minor heap. *)
let stop_after k =
  let stop = Some "alloc-smoke: planned stop" in
  Rrfd.Predicate.make
    ~incr:(fun _h ~round -> if round >= k then stop else None)
    ~name:"alloc-smoke-stop" ~doc:"stops the run after k rounds"
    (fun h -> if Rrfd.Fault_history.rounds h >= k then stop else None)

(* Minor words allocated by [f ()].  The boxing of the second counter
   read lands after the read itself, so the delta is exact up to a
   constant that is identical across calls — and the gate only compares
   deltas against each other. *)
let minor_delta f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* [per_unit ~run ~short ~long] is the exact number of minor words one
   extra unit of steady-state work costs, measured as the delta between a
   [short]-unit and a [long]-unit execution of the same fixture. *)
let per_unit ~run ~short ~long =
  ignore (run short);
  (* warm up: first call may trigger lazy initialisation *)
  let s = minor_delta (fun () -> run short) in
  let l = minor_delta (fun () -> run long) in
  (l -. s) /. float_of_int (long - short)

let check ?(unit = "round") ?(short = 2) ?(long = 4) ~label run =
  let words = per_unit ~run ~short ~long in
  if words = 0.0 then Printf.printf "  %-28s 0 words/%s  OK\n" label unit
  else begin
    incr failures;
    Printf.printf "  %-28s %+.1f words/%s  FAIL\n" label words unit
  end

(* One fixed fault set per process, constant across rounds: p0 misses
   p_{n-1}, everyone else misses nobody.  Constant detectors return the
   same array every query, so the detector contributes zero words. *)
let fixture n =
  let sets = Array.make n Rrfd.Pset.empty in
  sets.(0) <- Rrfd.Pset.of_list [ n - 1 ];
  let detector = Rrfd.Detector.constant ~n sets in
  let algorithm = Rrfd.Kset.one_round ~inputs:(Tasks.Inputs.distinct n) in
  (detector, algorithm)

let engine_kernel n rounds =
  let detector, algorithm = fixture n in
  ignore
    (Rrfd.Engine.run ~n ~max_rounds:4 ~check:(stop_after rounds)
       ~stop_when_decided:false ~algorithm ~detector ())

(* The same run through the protocol catalog, the path every
   substrate-uniform caller (SUTs, E22, the CLI) takes. *)
let kset_entry = Protocols.Catalog.find_exn "kset-one-round"

let substrate_dispatch n rounds =
  let detector, _ = fixture n in
  ignore
    (Protocols.Catalog.run_engine kset_entry ~check:(stop_after rounds)
       ~stop_when_decided:false ~max_rounds:4 ~n ~f:1 ~detector ())

(* The simulator's event loop at the queue depth of a Chandra-Toueg
   instance at n = 64 (n(n-1) = 4032 pending events).  Every event
   reschedules the one preallocated thunk, so the depth holds and each
   extra event is one pop, one dispatch and one push. *)
let depth = 4032

let period = float_of_int depth

let rec reschedule sim = Dsim.Sim.schedule sim ~delay:period reschedule

let dsim_event_loop events =
  let sim = Dsim.Sim.create () in
  for i = 0 to depth - 1 do
    Dsim.Sim.schedule_at sim ~time:(float_of_int i) reschedule
  done;
  Dsim.Sim.run ~max_events:events sim

(* A whole simulator drained by [run]: [depth] events of one static
   thunk.  A drained queue parks its arrays with the domain and the next
   simulator adopts them, so once warm a simulator costs the same words
   at any depth up to the parked capacity: its record, clock and random
   stream, and no queue storage.  Counted as minor plus directly
   allocated major words, since arrays past the minor-heap size limit go
   straight to the major heap. *)
let static (_ : Dsim.Sim.t) = ()

(* The event times, boxed once: a float taken from a list is passed to
   [schedule_at] as it is, where one computed in the loop would be boxed
   at every call.  Descending times make every push sift to the root. *)
let stamps depth = List.init depth (fun i -> float_of_int (depth - i))

let fresh_sim stamps () =
  let sim = Dsim.Sim.create () in
  List.iter (fun time -> Dsim.Sim.schedule_at sim ~time static) stamps;
  Dsim.Sim.run sim

(* The minor part comes from [Gc.minor_words]: the minor count of
   [Gc.counters] misreads the words allocated since the last minor
   collection on OCaml 5.1. *)
let words_delta f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  f ();
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. promoted1 -. (major0 -. promoted0))

let check_fresh_sim () =
  let deep = fresh_sim (stamps depth) and shallow = fresh_sim (stamps 64) in
  deep ();
  deep ();
  let deep_words = words_delta deep in
  (* After [deep], as the shallow run drops the arrays it adopts. *)
  let extra = deep_words -. words_delta shallow in
  let label = Printf.sprintf "dsim-fresh-sim depth=%d" depth in
  if extra = 0.0 then Printf.printf "  %-28s +0 words/sim vs depth 64  OK\n" label
  else begin
    incr failures;
    Printf.printf "  %-28s %+.0f words/sim vs depth 64  FAIL\n" label extra
  end

(* One message's delay plan under every delay-touching atom at once.
   The drawn delay comes in the buffer and the redrawn duplicate delay
   is written there, as the network does; every draw, the modified
   delay and the copies' delays stay unboxed in the caller's buffer. *)
let plan_n = 5

let plan_adversary =
  match Msgnet.Adversary.of_spec "drop:p=15+dup:p=15+spike+reorder" with
  | Ok a -> a
  | Error e -> failwith e

let plan_now = 12.0

let plan_delay = 4.5

let plan_redraw_delay = 3.25

let plan_redraw out k = Float.Array.set out k plan_redraw_delay

let plan_clock () = plan_now

let plan_buf = Float.Array.create (Msgnet.Adversary.max_copies plan_adversary)

let plan_into plans =
  let rng = Dsim.Rng.create 15 in
  for j = 1 to plans do
    ignore
      (Float.Array.set plan_buf 0 plan_delay;
       Msgnet.Adversary.plan_into plan_adversary rng ~now:plan_clock
         ~from:(j mod plan_n)
         ~to_:((j + 1) mod plan_n)
         ~redraw:plan_redraw plan_buf
        : int)
  done

(* Steady-state queries of the constructive [async:f=3] generator at
   n = 8, the model checker's per-round detector: the output array is
   reused across queries (see Detector.next) and every draw stays
   unboxed, so a query allocates nothing. *)
let async_detector = Rrfd.Detector_gen.async (Dsim.Rng.create 3) ~n:8 ~f:3

let async_history = Rrfd.Fault_history.empty ~n:8

let detector_gen_async queries =
  for _ = 1 to queries do
    ignore (Rrfd.Detector.next async_detector async_history : Rrfd.Pset.t array)
  done

(* The same for the constructive [shm:f=3] and [omission:f=3] generators,
   which fill one output array the same way. *)
let detector_queries detector queries =
  for _ = 1 to queries do
    ignore (Rrfd.Detector.next detector async_history : Rrfd.Pset.t array)
  done

let shm_detector = Rrfd.Detector_gen.shared_memory (Dsim.Rng.create 3) ~n:8 ~f:3

let omission_detector = Rrfd.Detector_gen.omission (Dsim.Rng.create 3) ~n:8 ~f:3

(* Derive's candidate vocabulary at n = 5 judged on induced histories of
   a lossy, duplicating network, each call a whole-history verdict.  A
   run of [k] calls walks the (history, candidate) pairs in order, so
   the long run covers every pair more often than the short one. *)
let holds_preds =
  Array.of_list
    (List.map
       (fun spec ->
         match Check.Spec.predicate spec with
         | Ok p -> p
         | Error e -> failwith e)
       (Check.Derive.candidates ~n:5 ~f:2))

let holds_histories =
  let adversary =
    match Msgnet.Adversary.of_spec "drop:p=15+dup:p=15" with
    | Ok a -> a
    | Error e -> failwith e
  in
  Array.init 8 (fun seed ->
      (Msgnet.Round_layer.run ~seed ~adversary ~n:5 ~f:2 ~rounds:4
         ~algorithm:(Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct 5))
         ())
        .Msgnet.Round_layer.induced)

let holds_pairs = Array.length holds_preds * Array.length holds_histories

let sink = ref 0

let predicate_holds calls =
  let np = Array.length holds_preds in
  for j = 0 to calls - 1 do
    let k = j mod holds_pairs in
    if Rrfd.Predicate.holds holds_preds.(k mod np) holds_histories.(k / np)
    then incr sink
  done

(* Steady-state broadcasts: one network broadcasts [waves] times, each
   wave one broadcast from the next process, drained before the next.
   With 8 or more receivers every copy is a run event (a broadcast to
   fewer is a loop of sends, a closure per copy), so once the payload table, the run storage
   and the queue have grown to a wave's size, a wave allocates nothing:
   not its draws, plans and signatures, not its copies' deliveries.
   Counted per delivery: the long run's words beyond the short one's,
   over its deliveries beyond the short one's. *)
let broadcast_payload = "beat"

let broadcast_net ~n ~spec =
  let adversary =
    match Msgnet.Adversary.of_spec spec with Ok a -> a | Error e -> failwith e
  in
  let sim = Dsim.Sim.create ~seed:5 () in
  let net =
    Msgnet.Network.create ~sim ~n ~adversary
      ~deliver:(fun _ ~to_:_ ~from:_ (_ : string) -> ())
      ()
  in
  (sim, net)

let network_broadcast (sim, net) waves =
  let n = Msgnet.Network.n net in
  for w = 1 to waves do
    Msgnet.Network.broadcast net ~from:(w mod n) broadcast_payload;
    Dsim.Sim.run sim
  done

let check_broadcast ~n ~spec =
  let fixture = broadcast_net ~n ~spec in
  let delivered () = Msgnet.Network.messages_delivered (snd fixture) in
  (* Warm up until the tables, the run storage and the queue have seen
     the longest broadcast the adversary makes. *)
  network_broadcast fixture 1024;
  let d0 = delivered () in
  let s = minor_delta (fun () -> network_broadcast fixture 64) in
  let d1 = delivered () in
  let l = minor_delta (fun () -> network_broadcast fixture 256) in
  let extra = float_of_int (delivered () - d1 - (d1 - d0)) in
  let label = Printf.sprintf "network-broadcast n=%d %s" n spec in
  if l = s then Printf.printf "  %-28s 0 words/delivery  OK\n" label
  else begin
    incr failures;
    Printf.printf "  %-28s %+.2f words/delivery  FAIL\n" label ((l -. s) /. extra)
  end

let () =
  Printf.printf "=== alloc smoke: minor words per steady-state round ===\n";
  List.iter
    (fun n ->
      check ~label:(Printf.sprintf "kset-one-round n=%d" n) (engine_kernel n);
      check
        ~label:(Printf.sprintf "substrate-dispatch n=%d" n)
        (substrate_dispatch n))
    [ 4; 16; 48 ];
  check ~unit:"event" ~short:depth ~long:(4 * depth)
    ~label:(Printf.sprintf "dsim-event-loop depth=%d" depth)
    dsim_event_loop;
  check_fresh_sim ();
  check_broadcast ~n:64 ~spec:"none";
  check_broadcast ~n:8 ~spec:"drop:p=15+dup:p=15";
  check ~unit:"plan" ~short:1000 ~long:4000
    ~label:(Printf.sprintf "adversary-plan-into n=%d" plan_n)
    plan_into;
  check ~unit:"query" ~short:100 ~long:400 ~label:"detector-gen-async n=8"
    detector_gen_async;
  check ~unit:"query" ~short:100 ~long:400 ~label:"detector-gen-shm n=8"
    (detector_queries shm_detector);
  check ~unit:"query" ~short:100 ~long:400 ~label:"detector-gen-omission n=8"
    (detector_queries omission_detector);
  check ~unit:"call" ~short:holds_pairs ~long:(4 * holds_pairs)
    ~label:"predicate-holds n=5" predicate_holds;
  if !failures > 0 then begin
    Printf.printf "alloc smoke: %d kernel(s) allocate in steady state\n"
      !failures;
    exit 1
  end;
  Printf.printf
    "alloc smoke: steady-state rounds, simulator events, queue storage, \
     broadcasts, adversary plans, detector queries and predicate verdicts \
     are allocation-free\n"
