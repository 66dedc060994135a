(* Isolated per-layer subjects for the traced run.  Each times one layer
   through its public functions, fed with inputs recorded from op 0 of
   the owning workload at the run's seed: the live and replayed
   executions of check-phased's trials, the induced histories and
   round-layer seeds of derive-lossy's observation pass, and queues of
   ct-n64's depth (about n² = 4032 pending events at n = 64).  A cost is
   the median over [reps] timings of a fixed number of passes. *)

module W = Workload

let sink = ref 0

let cost ?(reps = 7) ~passes ~units pass =
  let xs =
    Array.init reps (fun _ ->
        let t0 = Span.now () in
        for _ = 1 to passes do
          pass ()
        done;
        float_of_int (Span.now () - t0) /. float_of_int (passes * units))
  in
  Stats.median xs

let rounds_of h =
  Array.init (Rrfd.Fault_history.rounds h) (fun r ->
      Rrfd.Fault_history.round_sets h ~round:(r + 1))

(* [prefixes h].(r) is the first [r] rounds of [h]. *)
let prefixes h =
  let rs = Array.to_list (rounds_of h) in
  Array.init
    (Rrfd.Fault_history.rounds h + 1)
    (fun r ->
      Rrfd.Fault_history.of_rounds ~n:(Rrfd.Fault_history.n h)
        (List.filteri (fun i _ -> i < r) rs))

(* Five set operations per pair of neighbouring sets. *)
let pset_pass sets () =
  let k = Array.length sets in
  for i = 0 to k - 1 do
    let a = sets.(i) and b = sets.((i + 1) mod k) in
    let u = Rrfd.Pset.union a b and x = Rrfd.Pset.inter a b in
    sink :=
      !sink + Rrfd.Pset.cardinal u + Rrfd.Pset.cardinal x
      + Bool.to_int (Rrfd.Pset.subset a b)
  done

type check_inputs = {
  env : W.Check_phased.env;
  seed0 : int;  (** op 0's campaign seed *)
  trials : int array;
  live : Check.Property.obs array;
  replay : Check.Property.obs array;
}

let record_check ~seed =
  let env = W.Check_phased.setup () in
  let t = ref [] in
  ignore
    (W.Check_phased.traced env Span.null (W.fresh ()) ~seed 0
       ~record:(fun i live replay -> t := (i, live, replay) :: !t)
      : W.op);
  let t = Array.of_list (List.rev !t) in
  {
    env;
    seed0 = Dsim.Rng.derive_seed seed 0;
    trials = Array.map (fun (i, _, _) -> i) t;
    live = Array.map (fun (_, l, _) -> l) t;
    replay = Array.map (fun (_, _, r) -> r) t;
  }

let check_subjects (ci : check_inputs) =
  let env = ci.env in
  let n = W.Check_phased.n in
  let hists = Array.map (fun o -> o.Check.Property.history) ci.live in
  let rounds = Array.map rounds_of hists in
  let pre = Array.map prefixes hists in
  let total_rounds = Array.fold_left (fun a r -> a + Array.length r) 0 rounds in
  let sets = Array.concat (List.concat_map Array.to_list (Array.to_list rounds)) in
  let nsets = Array.length sets in
  let k = Array.length hists in
  let detector () =
    Array.iteri
      (fun j t ->
        let d = env.W.Check_phased.gen (Dsim.Rng.derive ~seed:ci.seed0 ~stream:t) ~n in
        for r = 0 to Array.length rounds.(j) - 1 do
          ignore (Rrfd.Detector.next d pre.(j).(r) : Rrfd.Pset.t array)
        done)
      ci.trials
  in
  let engine () =
    Array.iter
      (fun rs ->
        let o =
          Check.Sut.run env.W.Check_phased.sut ~n ~max_rounds:W.Check_phased.rounds
            ~check:Rrfd.Predicate.always
            ~detector:(Rrfd.Detector.of_schedule (Array.to_list rs))
        in
        sink := !sink + o.Check.Property.rounds_used)
      rounds
  in
  let engine_rounds =
    sink := 0;
    engine ();
    !sink
  in
  let msgs = Array.init n Fun.id in
  let view = Rrfd.View.create ~n in
  let deliveries =
    Array.fold_left (fun a d -> a + n - Rrfd.Pset.cardinal d) 0 sets
  in
  let view_pass () =
    Array.iter
      (fun d ->
        Rrfd.View.set view ~msgs ~faulty:d;
        sink := Rrfd.View.fold (fun _ m acc -> acc + m) view !sink)
      sets
  in
  let append_in_place () =
    Array.iter
      (fun rs ->
        let h = Rrfd.Fault_history.create ~n ~capacity:(Array.length rs) in
        Array.iter
          (fun d -> ignore (Rrfd.Fault_history.append_in_place h d : Rrfd.Fault_history.t))
          rs)
      rounds
  in
  let check_round () =
    Array.iter
      (fun p ->
        for r = 1 to Array.length p - 1 do
          ignore (Rrfd.Predicate.check_round env.W.Check_phased.pred p.(r) ~round:r : string option)
        done)
      pre
  in
  let replay () =
    Array.iter
      (fun h ->
        ignore
          (Check.Sut.run_history env.W.Check_phased.sut ~check:env.W.Check_phased.pred h
            : Check.Property.obs))
      hists
  in
  let property () =
    Array.iter
      (fun o ->
        ignore
          (Check.Property.first_failure env.W.Check_phased.props o
            : (Check.Property.t * string) option))
      ci.replay
  in
  let campaign_trials = 20_000 in
  [
    ("pset.small.ns_per_op", cost ~passes:200 ~units:(5 * nsets) (pset_pass sets));
    ("detector.ns_per_query", cost ~passes:20 ~units:total_rounds detector);
    ("engine.ns_per_round", cost ~passes:10 ~units:engine_rounds engine);
    ("view.ns_per_delivery", cost ~passes:50 ~units:deliveries view_pass);
    ( "fault_history.ns_per_append_in_place",
      cost ~passes:100 ~units:total_rounds append_in_place );
    ("predicate.ns_per_check_round", cost ~passes:50 ~units:total_rounds check_round);
    ("sut.ns_per_replay", cost ~passes:10 ~units:k replay);
    ("property.ns_per_check", cost ~passes:200 ~units:k property);
    ( "campaign.overhead_ns_per_trial",
      cost ~passes:1 ~units:campaign_trials (fun () ->
          ignore
            (Runtime.Campaign.search ~jobs:1 ~seed:ci.seed0 ~trials:campaign_trials
               (fun ~trial:_ ~rng:_ -> None)
              : unit option)) );
  ]

type derive_inputs = {
  base : W.Derive_lossy.base;
  seeds : int array;  (** round-layer seeds of the observed executions *)
  induced : Rrfd.Fault_history.t array;
}

let record_derive ~seed =
  let base = W.Derive_lossy.base () in
  let t = ref [] in
  ignore
    (W.Derive_lossy.observe base Span.null (W.fresh ())
       ~seed_i:(Dsim.Rng.derive_seed seed 0)
       ~record:(fun s h -> t := (s, h) :: !t)
      : int array);
  let t = Array.of_list (List.rev !t) in
  { base; seeds = Array.map fst t; induced = Array.map snd t }

let derive_subjects ~seed (di : derive_inputs) =
  let b = di.base in
  let cfg = b.W.Derive_lossy.cfg in
  let n = cfg.Check.Derive.n in
  let k = Array.length di.induced in
  let rounds = Array.map rounds_of di.induced in
  let total_rounds = Array.fold_left (fun a r -> a + Array.length r) 0 rounds in
  let npred = Array.length b.W.Derive_lossy.preds in
  let holds () =
    Array.iter
      (fun h ->
        Array.iter
          (fun p -> if Rrfd.Predicate.holds p h then incr sink)
          b.W.Derive_lossy.preds)
      di.induced
  in
  let append () =
    Array.iter
      (fun rs ->
        ignore
          (Array.fold_left Rrfd.Fault_history.append (Rrfd.Fault_history.empty ~n) rs
            : Rrfd.Fault_history.t))
      rounds
  in
  let full = Rrfd.Pset.full n in
  let notes () =
    Array.iter
      (fun rs ->
        let ho = Msgnet.Heard_of.create ~n in
        Array.iteri
          (fun r sets ->
            Array.iteri
              (fun i d ->
                Msgnet.Heard_of.note ho i ~round:(r + 1)
                  ~heard:(Rrfd.Pset.diff full d) ())
              sets)
          rs)
      rounds
  in
  let plans = 50_000 in
  let plan () =
    let rng = Dsim.Rng.create (Dsim.Rng.derive_seed seed 3) in
    let redraw () = 5.0 in
    for j = 1 to plans do
      sink :=
        !sink
        + List.length
            (Msgnet.Adversary.plan b.W.Derive_lossy.adversary rng
               ~now:(float_of_int j) ~from:(j mod n)
               ~to_:((j + 1 + (j / n)) mod n)
               ~delay:(float_of_int (1 + (j mod 10)))
               ~redraw)
    done
  in
  let round_layer () =
    Array.iter
      (fun s ->
        ignore
          (Msgnet.Round_layer.run ~seed:s ~adversary:b.W.Derive_lossy.adversary ~n
             ~f:cfg.Check.Derive.f ~rounds:cfg.Check.Derive.rounds
             ~algorithm:(Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n))
             ()
            : Rrfd.Full_info.t Msgnet.Round_layer.result))
      di.seeds
  in
  let lattice_s =
    Stats.median
      (Array.init 3 (fun _ ->
           let t0 = Span.now () in
           ignore (W.ok_exn (Check.Derive.lattice_for ~cfg) : Rrfd.Submodel.lattice);
           float_of_int (Span.now () - t0) /. 1e9))
  in
  [
    ("predicate.ns_per_holds", cost ~passes:5 ~units:(npred * k) holds);
    ("fault_history.ns_per_append", cost ~passes:50 ~units:total_rounds append);
    ("adversary.ns_per_plan", cost ~passes:1 ~units:plans plan);
    ("heard_of.ns_per_note", cost ~passes:50 ~units:(n * total_rounds) notes);
    ("round_layer.ns_per_exec", cost ~reps:5 ~passes:1 ~units:k round_layer);
    ("submodel.lattice_s", lattice_s);
  ]

(* ct-n64's layers at its own width and queue depth. *)
let ct_subjects ~seed =
  let n = 64 in
  let depth = n * (n - 1) in
  let rng = Dsim.Rng.create (Dsim.Rng.derive_seed seed 4) in
  let wide =
    Array.init 512 (fun _ -> Rrfd.Pset.random_subset rng (Rrfd.Pset.full n))
  in
  let sim = Dsim.Sim.create ~seed () in
  (* Pop and dispatch only: the queue is refilled to [depth] untimed, so
     the push is charged to the send that causes it. *)
  let event_ns =
    let ev _ = incr sink in
    Stats.median
      (Array.init 7 (fun _ ->
           let t = ref 0 in
           for _ = 1 to 20 do
             for _ = 1 to depth do
               Dsim.Sim.schedule sim
                 ~delay:(1.0 +. Dsim.Rng.float (Dsim.Sim.rng sim) 9.0)
                 ev
             done;
             let t0 = Span.now () in
             Dsim.Sim.run sim;
             t := !t + (Span.now () - t0)
           done;
           float_of_int !t /. float_of_int (20 * depth)))
  in
  let net =
    Msgnet.Network.create ~sim ~n ~deliver:(fun _ ~to_:_ ~from:_ () -> ()) ()
  in
  (* Sends are timed; draining the queue between passes is not. *)
  let send_ns =
    Stats.median
      (Array.init 7 (fun _ ->
           let t = ref 0 in
           for _ = 1 to 10 do
             let t0 = Span.now () in
             for from = 0 to n - 1 do
               for to_ = 0 to n - 1 do
                 if to_ <> from then Msgnet.Network.send net ~from ~to_ ()
               done
             done;
             t := !t + (Span.now () - t0);
             Dsim.Sim.run sim
           done;
           float_of_int !t /. float_of_int (10 * depth)))
  in
  [
    ("pset.wide.ns_per_op", cost ~passes:200 ~units:(5 * 512) (pset_pass wide));
    ("sim.ns_per_event", event_ns);
    ("network.ns_per_send", send_ns);
  ]

let measure ~seed =
  check_subjects (record_check ~seed)
  @ derive_subjects ~seed (record_derive ~seed)
  @ ct_subjects ~seed

(* The non-overlapping top-level layers each workload's execution passes
   through, with their exact counts per execution.  Buried layers (Pset,
   View, Fault_history, Heard_of, Adversary) are inside these costs and
   are reported beside them, not summed. *)
let terms ~workload ~cost (c : W.counts) =
  let per x = float_of_int x /. float_of_int (max 1 c.W.execs) in
  let term layer count = { Stats.layer; cost_ns = cost layer; count } in
  match workload with
  | "check-phased" ->
    (* live rounds = detector queries, one online check each *)
    [
      term "campaign.overhead_ns_per_trial" 1.;
      term "detector.ns_per_query" (per c.W.queries);
      term "engine.ns_per_round" (per c.W.queries);
      term "predicate.ns_per_check_round" (per c.W.queries);
      term "sut.ns_per_replay" 1.;
      term "property.ns_per_check" 1.;
    ]
  | "derive-lossy" ->
    [
      term "campaign.overhead_ns_per_trial" 1.;
      term "round_layer.ns_per_exec" 1.;
      term "predicate.ns_per_holds" (per c.W.checks);
    ]
  | _ ->
    (* every send becomes one simulator event *)
    [
      term "network.ns_per_send" (per c.W.sent);
      term "sim.ns_per_event" (per c.W.sent);
    ]
