(* Tests for the discrete-event substrate: Rng and Sim with its event queue. *)

module Rng = Dsim.Rng
module Sim = Dsim.Sim

let rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.int64 a <> Rng.int64 b then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let rng_bounds () =
  let rng = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "int in range" true (v >= 0 && v < 10);
    let w = Rng.int_in_range rng ~min:5 ~max:9 in
    Alcotest.(check bool) "range inclusive" true (w >= 5 && w <= 9);
    let f = Rng.float rng 3.0 in
    Alcotest.(check bool) "float in range" true (f >= 0.0 && f < 3.0)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let rng_sampling () =
  let rng = Rng.create 11 in
  for _ = 1 to 100 do
    let sample = Rng.sample_without_replacement rng 5 20 in
    Alcotest.(check int) "sample size" 5 (List.length sample);
    Alcotest.(check bool) "sorted distinct" true
      (List.sort_uniq compare sample = sample);
    List.iter
      (fun v -> Alcotest.(check bool) "in universe" true (v >= 0 && v < 20))
      sample
  done;
  let all = Rng.sample_without_replacement rng 20 20 in
  Alcotest.(check int) "full sample" 20 (List.length all)

let rng_shuffle_permutes () =
  let rng = Rng.create 3 in
  let l = List.init 30 Fun.id in
  let shuffled = Rng.shuffle rng l in
  Alcotest.(check (list int)) "same multiset" l (List.sort compare shuffled)

(* Build the next [n] outputs in stream order (List.init's evaluation order
   is not something to rely on for a stateful generator). *)
let take n rng =
  let rec go acc k = if k = 0 then List.rev acc else go (Rng.int64 rng :: acc) (k - 1) in
  go [] n

let common_prefix_len a b =
  let rec go n = function
    | x :: xs, y :: ys when x = y -> go (n + 1) (xs, ys)
    | _ -> n
  in
  go 0 (a, b)

(* Split-stream independence smoke test: a child stream must diverge from
   its parent immediately — any long shared prefix would mean trials of a
   campaign see correlated randomness. *)
let rng_split_streams_independent =
  QCheck.Test.make ~name:"split child shares no prefix with parent" ~count:500
    QCheck.int (fun seed ->
      let parent = Rng.create seed in
      let child = Rng.split parent in
      common_prefix_len (take 16 parent) (take 16 child) = 0)

let rng_derived_streams_independent =
  QCheck.Test.make ~name:"derived streams pairwise diverge" ~count:200
    QCheck.(pair int (Test_support.int_range 0 1000))
    (fun (seed, stream) ->
      let a = Rng.derive ~seed ~stream in
      let b = Rng.derive ~seed ~stream:(stream + 1) in
      let same_seed_again = Rng.derive ~seed ~stream in
      let sa = take 16 a in
      common_prefix_len sa (take 16 b) = 0 && sa = take 16 same_seed_again)

let rng_sample_invariants =
  QCheck.Test.make ~name:"sample_without_replacement invariants" ~count:500
    QCheck.(
      triple int (Test_support.int_range 0 40) (Test_support.int_range 0 40))
    (fun (seed, n, k) ->
      let k = min k n in
      let rng = Rng.create seed in
      let sample = Rng.sample_without_replacement rng k n in
      List.length sample = k
      && List.sort_uniq compare sample = sample
      && List.for_all (fun v -> v >= 0 && v < n) sample)

let heap_orders () =
  let sim = Sim.create () in
  let rng = Rng.create 5 in
  let last = ref neg_infinity in
  for _ = 1 to 200 do
    Sim.schedule_at sim ~time:(Rng.float rng 100.0) (fun s ->
        Alcotest.(check bool) "non-decreasing" true (Sim.now s >= !last);
        last := Sim.now s)
  done;
  Sim.run sim;
  Alcotest.(check int) "all ran" 200 (Sim.executed sim);
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

let heap_stable_ties () =
  let sim = Sim.create () in
  let order = ref [] in
  List.iter (fun i -> Sim.schedule_at sim ~time:1.0 (fun _ -> order := i :: !order)) [ 1; 2; 3; 4 ];
  Sim.run sim;
  Alcotest.(check (list int)) "insertion order on ties" [ 1; 2; 3; 4 ] (List.rev !order)

(* Model check of the event queue: interleave [schedule_at] (times drawn
   from a few values, so ties are common; enough pushes to cross several
   capacity doublings) with [step], and optionally [run ~until], and
   compare against a list kept sorted on (time, insertion index).  Each
   step must run the model's minimum and set the clock to its time; each
   [run ~until] must run exactly the model's events up to its horizon, in
   order.  Scheduled times never precede the clock: each is the current
   time plus a non-negative offset. *)
type op = Schedule of int | Step | Run_until of int

let ops ~until =
  let op =
    QCheck.Gen.(
      frequency
        ([ (6, map (fun o -> Schedule o) (int_range 0 3)); (1, return Step) ]
        @ if until then [ (1, map (fun s -> Run_until s) (int_range 0 3)) ] else []))
  in
  let print = function
    | Schedule o -> Printf.sprintf "schedule +%d" o
    | Step -> "step"
    | Run_until s -> Printf.sprintf "run ~until:+%d" s
  in
  QCheck.make ~print:(QCheck.Print.list print) QCheck.Gen.(list_size (int_range 0 300) op)

let matches_sorted_model sim ops =
  let ran = ref [] in
  let model = ref [] and next = ref 0 in
  let apply = function
    | Schedule offset ->
      let time = Sim.now sim +. float_of_int offset in
      let id = !next in
      incr next;
      Sim.schedule_at sim ~time (fun s -> ran := (Sim.now s, id) :: !ran);
      model := List.merge compare !model [ (time, id) ];
      true
    | Step -> (
      ran := [];
      match !model with
      | [] -> not (Sim.step sim)
      | first :: rest ->
        model := rest;
        Sim.step sim && !ran = [ first ])
    | Run_until span ->
      let horizon = Sim.now sim +. float_of_int span in
      let due, rest = List.partition (fun (time, _) -> time <= horizon) !model in
      model := rest;
      ran := [];
      Sim.run ~until:horizon sim;
      List.rev !ran = due
      && (due = [] || Sim.now sim = fst (List.nth due (List.length due - 1)))
  in
  List.for_all apply ops
  && List.for_all (fun _ -> apply Step) (List.init (List.length !model + 1) Fun.id)

let sim_matches_sorted_model =
  QCheck.Test.make ~name:"sim event order matches sorted model" ~count:200
    (ops ~until:false) (fun ops -> matches_sorted_model (Sim.create ()) ops)

(* Drains a simulator of [events] events through [run], so that it parks
   its queue storage on this domain for the next fresh simulator. *)
let drain_and_park events =
  let sim = Sim.create () in
  for i = 1 to events do
    Sim.schedule_at sim ~time:(float_of_int (i mod 97)) ignore
  done;
  Sim.run sim

(* The same model on a simulator that adopts the storage a 4096-event
   simulator parked, its slot table left in whatever order that run put
   it, with [run ~until] mixed into the ops. *)
let sim_adopted_matches_sorted_model =
  QCheck.Test.make ~name:"adopted storage matches sorted model" ~count:100
    (ops ~until:true) (fun ops ->
      drain_and_park 4096;
      matches_sorted_model (Sim.create ()) ops)

let sim_runs_in_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim ~delay:5.0 (fun _ -> log := 5 :: !log);
  Sim.schedule sim ~delay:1.0 (fun s ->
      log := 1 :: !log;
      Sim.schedule s ~delay:1.0 (fun _ -> log := 2 :: !log));
  Sim.run sim;
  Alcotest.(check (list int)) "execution order" [ 1; 2; 5 ] (List.rev !log);
  Alcotest.(check (float 0.0)) "clock at last event" 5.0 (Sim.now sim)

let sim_until_and_budget () =
  let sim = Sim.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Sim.schedule sim ~delay:(float_of_int i) (fun _ -> incr count)
  done;
  Sim.run ~until:4.5 sim;
  Alcotest.(check int) "until stops" 4 !count;
  Sim.run ~max_events:2 sim;
  Alcotest.(check int) "budget stops" 6 !count;
  Sim.run sim;
  Alcotest.(check int) "drains" 10 !count

let sim_rejects_past () =
  let sim = Sim.create () in
  Sim.schedule sim ~delay:2.0 (fun s ->
      Alcotest.check_raises "past" (Invalid_argument "Sim.schedule_at: time is in the past")
        (fun () -> Sim.schedule_at s ~time:1.0 (fun _ -> ())));
  Sim.run sim

let sim_rejects_bad_times () =
  let sim = Sim.create () in
  let nop _ = () in
  let delay_error = Invalid_argument "Sim.schedule: delay must be finite and non-negative" in
  List.iter
    (fun (name, delay) ->
      Alcotest.check_raises name delay_error (fun () -> Sim.schedule sim ~delay nop))
    [ ("nan delay", Float.nan); ("infinite delay", infinity); ("negative delay", -1.0) ];
  List.iter
    (fun (name, time) ->
      Alcotest.check_raises name (Invalid_argument "Sim.schedule_at: time must be finite")
        (fun () -> Sim.schedule_at sim ~time nop))
    [ ("nan time", Float.nan); ("infinite time", infinity); ("-infinite time", neg_infinity) ];
  Alcotest.(check int) "nothing queued" 0 (Sim.pending sim)

(* Allocated out of line so no stack slot of the caller keeps the payload
   alive: after the event runs, only the queue could still reach it.  It
   runs last, so its closure passes through the vacated slots the queue
   must clear. *)
let[@inline never] schedule_with_payload sim weak =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  Sim.schedule sim ~delay:2.0 (fun _ -> ignore (Sys.opaque_identity (Bytes.length payload)))

let sim_releases_popped_events () =
  let sim = Sim.create () in
  let weak = Weak.create 1 in
  schedule_with_payload sim weak;
  Sim.schedule sim ~delay:1.0 (fun _ -> ());
  Sim.run sim;
  Gc.full_major ();
  Alcotest.(check bool) "payload collected" false (Weak.check weak 0);
  (* The simulator itself must still be live at the collection. *)
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

(* Like the test above, but through storage that a drained simulator
   parks: the payload's slot is cleared before the arrays are handed on,
   and the simulator that adopts them next runs as usual. *)
let parked_storage_keeps_nothing_alive () =
  let sim = Sim.create () in
  let weak = Weak.create 1 in
  schedule_with_payload sim weak;
  for _ = 1 to 99 do
    Sim.schedule sim ~delay:1.0 ignore
  done;
  Sim.run sim;
  Gc.full_major ();
  Alcotest.(check bool) "payload collected" false (Weak.check weak 0);
  let next = Sim.create () in
  let log = ref [] in
  List.iter (fun i -> Sim.schedule next ~delay:(float_of_int (3 - i)) (fun _ -> log := i :: !log)) [ 1; 2; 3 ];
  Sim.run next;
  Alcotest.(check (list int)) "adopter runs in time order" [ 3; 2; 1 ] (List.rev !log);
  Alcotest.(check int) "first simulator drained" 0 (Sim.pending sim)

(* One simulator with a run of [len] events and a plain event beside it,
   so its queue is full enough to park when it drains. *)
let[@inline never] park_after_run len =
  let sim = Sim.create () in
  let delays = Float.Array.init len (fun j -> float_of_int (j mod 7)) in
  Sim.schedule sim ~delay:0.5 ignore;
  Sim.schedule_run sim ~delays ~tags:(Array.make len 0) ~len (fun _ _ -> ());
  Sim.run sim

(* Parked run storage follows the runs of the simulators that use it: a
   100,000-event run's record and sort buffers are parked with its queue,
   but once a simulator that adopts them runs only short runs and parks
   again, neither stays live on the domain. *)
let parked_runs_shrink () =
  let live () =
    Gc.full_major ();
    (Gc.stat ()).live_words
  in
  park_after_run 20;
  let before = live () in
  park_after_run 100_000;
  park_after_run 20;
  let kept = live () - before in
  Alcotest.(check bool) (Printf.sprintf "%d words kept" kept) true (kept < 10_000)

(* A run's action is dropped once its last event has run, so neither the
   simulator nor storage it parks keeps the action, or what it captured,
   alive. *)
let[@inline never] schedule_run_with_payload sim weak =
  let payload = Bytes.make 64 'x' in
  Weak.set weak 0 (Some payload);
  let delays = Float.Array.make 3 1.0 in
  Sim.schedule_run sim ~delays ~tags:[| 0; 1; 2 |] ~len:3 (fun _ _ ->
      ignore (Sys.opaque_identity (Bytes.length payload)))

let sim_releases_ended_runs () =
  let sim = Sim.create () in
  let weak = Weak.create 1 in
  schedule_run_with_payload sim weak;
  Alcotest.(check int) "three events pending" 3 (Sim.pending sim);
  Sim.run sim;
  Alcotest.(check int) "three events ran" 3 (Sim.executed sim);
  Gc.full_major ();
  Alcotest.(check bool) "payload collected" false (Weak.check weak 0);
  Alcotest.(check int) "drained" 0 (Sim.pending sim)

(* A simulator paired with every event it was given, each run logging
   its clock and id.  Drained, the log must be the events sorted on
   (time, id). *)
type tracked = { sim : Sim.t; mutable given : (float * int) list; mutable ran : (float * int) list }

let track () = { sim = Sim.create (); given = []; ran = [] }

let add ?(action = ignore) t time =
  let id = List.length t.given in
  t.given <- (time, id) :: t.given;
  Sim.schedule_at t.sim ~time (fun s ->
      t.ran <- (Sim.now s, id) :: t.ran;
      action ())

let in_model_order name t =
  Alcotest.(check int) (name ^ " drained") 0 (Sim.pending t.sim);
  Alcotest.(check (list (pair (float 0.0) int)))
    (name ^ " ran in (time, seq) order") (List.sort compare t.given) (List.rev t.ran)

(* Simulators interleaved on one domain.  Mid-run, an event of [b] drains
   [a], which parks its arrays; a fresh [c] adopts them; then [a]
   schedules again onto fresh storage, while [b] still runs on its own.
   Every simulator keeps the model order. *)
let interleaved_simulators () =
  let rng = Rng.create 9 in
  let a = track () and b = track () and c = track () in
  let draw () = float_of_int (Rng.int rng 50) in
  for _ = 1 to 200 do
    add a (draw ())
  done;
  let mid () =
    Sim.run a.sim;
    Alcotest.(check int) "a drained mid-run of b" 0 (Sim.pending a.sim);
    for _ = 1 to 150 do
      add c (draw ())
    done;
    for _ = 1 to 100 do
      add a (Sim.now a.sim +. draw ())
    done
  in
  for i = 1 to 200 do
    add b (draw ()) ~action:(if i = 100 then mid else ignore)
  done;
  Sim.run b.sim;
  Alcotest.(check int) "b's mid-run event filled c" 150 (Sim.pending c.sim);
  Sim.run c.sim;
  Sim.run a.sim;
  in_model_order "a" a;
  in_model_order "b" b;
  in_model_order "c" c

(* Merged delivery runs against a list model.  Ops schedule plain
   events and runs (lengths 1..70, offsets from a few values so that ties
   are common), step, and run up to a horizon or an event budget; some
   events schedule a run from inside their handler, and some raise.  The
   model is a naive simulator that expands every run into its plain
   events, kept sorted on (time, seq).  Both sides log every event they
   run, every exception that escapes, and [pending], [executed] and the
   clock after every op; the logs must be equal. *)
type qop =
  | Plain of int
  | Run of int list
  | Spawns of int * int list  (* a plain event that schedules a run *)
  | Raises of int
  | Raising_run of int list
  | Step
  | Until of int
  | Budget of int

type driver = {
  now : unit -> float;
  plain : time:float -> (unit -> unit) -> unit;
  run_of : delays:float list -> (int -> unit) -> unit;
  step : unit -> bool;
  run : until:float option -> max_events:int option -> unit;
  pending : unit -> int;
  executed : unit -> int;
}

let real () =
  let sim = Sim.create () in
  {
    now = (fun () -> Sim.now sim);
    plain = (fun ~time f -> Sim.schedule_at sim ~time (fun _ -> f ()));
    run_of =
      (fun ~delays f ->
        let len = List.length delays in
        let d = Float.Array.of_list delays and tags = Array.init len Fun.id in
        Sim.schedule_run sim ~delays:d ~tags ~len (fun _ j -> f j));
    step = (fun () -> Sim.step sim);
    run = (fun ~until ~max_events -> Sim.run ?until ?max_events sim);
    pending = (fun () -> Sim.pending sim);
    executed = (fun () -> Sim.executed sim);
  }

(* The model queues [(time, seq, thunk)] triples; [compare] never
   reaches a thunk because seqs are distinct. *)
let model () =
  let clock = ref 0.0 and seq = ref 0 and queue = ref [] and executed = ref 0 in
  let add time f =
    queue := List.merge compare !queue [ (time, !seq, f) ];
    incr seq
  in
  let step () =
    match !queue with
    | [] -> false
    | (time, _, f) :: rest ->
      queue := rest;
      clock := time;
      incr executed;
      f ();
      true
  in
  {
    now = (fun () -> !clock);
    plain = (fun ~time f -> add time (fun () -> f ()));
    run_of =
      (fun ~delays f ->
        let now = !clock in
        List.iteri (fun j d -> add (now +. d) (fun () -> f j)) delays);
    step;
    run =
      (fun ~until ~max_events ->
        let horizon = Option.value until ~default:infinity
        and budget = Option.value max_events ~default:max_int in
        let start = !executed in
        let continue () =
          !executed - start < budget
          && match !queue with (time, _, _) :: _ -> time <= horizon | [] -> false
        in
        while continue () do
          ignore (step () : bool)
        done);
    pending = (fun () -> List.length !queue);
    executed = (fun () -> !executed);
  }

let interpret d ops =
  let log = ref [] and next_id = ref 0 in
  let note entry = log := entry :: !log in
  let fresh () =
    let id = !next_id in
    incr next_id;
    id
  in
  let delays offsets = List.map float_of_int offsets in
  let rec schedule = function
    | Plain o ->
      let id = fresh () in
      d.plain ~time:(d.now () +. float_of_int o) (fun () ->
          note (Printf.sprintf "%h ran %d" (d.now ()) id))
    | Run offsets | Raising_run offsets as op ->
      let id = fresh () in
      let raising = match op with Raising_run _ -> true | _ -> false in
      d.run_of ~delays:(delays offsets) (fun j ->
          note (Printf.sprintf "%h ran %d.%d" (d.now ()) id j);
          if raising && j mod 3 = 1 then raise Exit)
    | Spawns (o, offsets) ->
      let id = fresh () in
      d.plain ~time:(d.now () +. float_of_int o) (fun () ->
          note (Printf.sprintf "%h ran %d" (d.now ()) id);
          schedule (Run offsets))
    | Raises o ->
      let id = fresh () in
      d.plain ~time:(d.now () +. float_of_int o) (fun () ->
          note (Printf.sprintf "%h ran %d" (d.now ()) id);
          raise Exit)
    | Step | Until _ | Budget _ -> ()
  in
  let guarded f = try f () with Exit -> note "raised" in
  let apply op =
    (match op with
    | Step -> guarded (fun () -> note (string_of_bool (d.step ())))
    | Until span ->
      let until = Some (d.now () +. float_of_int span) in
      guarded (fun () -> d.run ~until ~max_events:None)
    | Budget k -> guarded (fun () -> d.run ~until:None ~max_events:(Some k))
    | op -> schedule op);
    note (Printf.sprintf "pending=%d executed=%d now=%h" (d.pending ()) (d.executed ()) (d.now ()))
  in
  List.iter apply ops;
  (* Drain, resuming after every raise. *)
  while d.pending () > 0 do
    guarded (fun () -> d.run ~until:None ~max_events:None)
  done;
  note (Printf.sprintf "drained executed=%d now=%h" (d.executed ()) (d.now ()));
  List.rev !log

let qops =
  let open QCheck.Gen in
  let offset = int_range 0 3 in
  let offsets = int_range 1 70 >>= fun len -> list_repeat len offset in
  let op =
    frequency
      [
        (4, map (fun o -> Plain o) offset);
        (3, map (fun l -> Run l) offsets);
        (1, map2 (fun o l -> Spawns (o, l)) offset offsets);
        (1, map (fun o -> Raises o) offset);
        (1, map (fun l -> Raising_run l) offsets);
        (3, return Step);
        (1, map (fun s -> Until s) (int_range 0 3));
        (1, map (fun k -> Budget k) (int_range 0 20));
      ]
  in
  let print = function
    | Plain o -> Printf.sprintf "plain +%d" o
    | Run l -> Printf.sprintf "run[%d]" (List.length l)
    | Spawns (o, l) -> Printf.sprintf "spawns +%d run[%d]" o (List.length l)
    | Raises o -> Printf.sprintf "raises +%d" o
    | Raising_run l -> Printf.sprintf "raising run[%d]" (List.length l)
    | Step -> "step"
    | Until s -> Printf.sprintf "until +%d" s
    | Budget k -> Printf.sprintf "budget %d" k
  in
  QCheck.make ~print:(QCheck.Print.list print) (list_size (int_range 0 60) op)

let runs_match_list_model =
  QCheck.Test.make ~name:"runs and plain events run in (time, seq) order"
    ~count:300 qops (fun ops -> interpret (real ()) ops = interpret (model ()) ops)

(* [Rng.int] reduces small bounds by multiply-shift instead of dividing;
   it must still return exactly one draw's remainder and advance the
   stream by exactly one draw.  Checked on copied streams for every
   bound from 1 to 300, a random bound up to 2^30, and the edges around
   the multiply-shift table and the 30-bit path. *)
let rng_int_matches_remainder =
  let edges = [ 255; 256; 257; (1 lsl 30) - 1; 1 lsl 30; (1 lsl 30) + 1; max_int ] in
  QCheck.Test.make ~name:"Rng.int is one draw's remainder" ~count:200
    QCheck.(pair (int_bound 1_000_000) (Test_support.int_range 1 (1 lsl 30)))
    (fun (seed, random_bound) ->
      let a = Rng.create seed in
      let check bound =
        for _ = 1 to 4 do
          let b = Rng.copy a in
          let got = Rng.int a bound and want = Test_support.Oracle.rng_int b bound in
          if got <> want then
            QCheck.Test.fail_reportf "seed %d bound %d: %d, want %d" seed bound got want;
          if Rng.int64 (Rng.copy a) <> Rng.int64 b then
            QCheck.Test.fail_reportf "seed %d bound %d: stream advanced differently"
              seed bound
        done
      in
      for bound = 1 to 300 do
        check bound
      done;
      List.iter check (random_bound :: edges);
      true)

let tests =
  [
    Alcotest.test_case "rng determinism" `Quick rng_deterministic;
    Alcotest.test_case "rng seeds" `Quick rng_seed_sensitivity;
    Alcotest.test_case "rng bounds" `Quick rng_bounds;
    Alcotest.test_case "rng sampling" `Quick rng_sampling;
    Alcotest.test_case "rng shuffle" `Quick rng_shuffle_permutes;
    Alcotest.test_case "heap orders" `Quick heap_orders;
    Alcotest.test_case "heap stable ties" `Quick heap_stable_ties;
    Alcotest.test_case "sim time order" `Quick sim_runs_in_time_order;
    Alcotest.test_case "sim until/budget" `Quick sim_until_and_budget;
    Alcotest.test_case "sim rejects past" `Quick sim_rejects_past;
    Alcotest.test_case "sim rejects bad times" `Quick sim_rejects_bad_times;
    Alcotest.test_case "sim releases popped events" `Quick sim_releases_popped_events;
    Alcotest.test_case "parked storage keeps nothing alive" `Quick
      parked_storage_keeps_nothing_alive;
    Alcotest.test_case "parked run storage shrinks" `Quick parked_runs_shrink;
    Alcotest.test_case "sim releases ended runs" `Quick sim_releases_ended_runs;
    Alcotest.test_case "interleaved simulators keep model order" `Quick
      interleaved_simulators;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        rng_int_matches_remainder;
        rng_split_streams_independent;
        rng_derived_streams_independent;
        rng_sample_invariants;
        sim_matches_sorted_model;
        sim_adopted_matches_sorted_model;
        runs_match_list_model;
      ]
