(* The benchmark's three closed-loop workloads.  One caller issues ops
   back to back in a single domain (every campaign runs at jobs = 1); op
   [i] of a run with seed [s] draws everything from
   [Dsim.Rng.derive_seed s i], so a run is a fixed, seeded list of ops.
   Each op's output is checked: a wrong answer is a failed op.

   Every workload has two forms of its op: [op], the library's public
   entry point as a user calls it, and [traced], the same work driven
   call by call through the public functions underneath it with a span
   around each.  The traced form must reproduce [op]'s output digest. *)

type counts = {
  mutable execs : int;
  mutable rounds : int;
  mutable queries : int;  (** detector queries *)
  mutable checks : int;  (** predicate evaluations *)
  mutable sent : int;
  mutable delivered : int;
  mutable digest : int;  (** running digest of every op's output *)
}

let fresh () =
  {
    execs = 0;
    rounds = 0;
    queries = 0;
    checks = 0;
    sent = 0;
    delivered = 0;
    digest = 17;
  }

let mix d v = ((d * 31) + v + 1) land 0x3FFFFFFF

let mix_decisions d decisions =
  Array.fold_left
    (fun d x -> mix d (match x with None -> -1 | Some v -> v))
    d decisions

(* [digest] is the running digest after the op, so a traced and an
   untraced pass over the same ops agree op by op. *)
type op = { execs : int; ok : bool; digest : int }

(* Two runs of one op, as a single outcome: it fails when either run gave
   a wrong answer or the runs disagree. *)
let agree a b =
  { a with ok = a.ok && b.ok && a.execs = b.execs && a.digest = b.digest }

let ok_exn = function Ok v -> v | Error e -> failwith e

(* {1 check-phased}

   Monte-Carlo model checking of the Section-7 phased consensus under a
   constructive async:f=3 adversary: detector draws, the engine kernel,
   the incremental predicate check, replay and properties. *)
module Check_phased = struct
  let n = 8

  let rounds = 6

  type env = {
    trials : int;
    sut : Check.Sut.t;
    gen : Dsim.Rng.t -> n:int -> Rrfd.Detector.t;
    pred : Rrfd.Predicate.t;
    props : Check.Property.t list;
  }

  let setup ?(trials = 256) () =
    let gen, pred = ok_exn (Check.Spec.generator "async:f=3") in
    {
      trials;
      sut = ok_exn (Check.Spec.sut "phased-consensus");
      gen;
      pred;
      props =
        List.map
          (fun s -> ok_exn (Check.Spec.property s))
          [ "validity"; "agreement" ];
    }

  (* The campaign's own predicate, generator and properties, wrapped to
     keep exact counts: one closure call per round or per execution. *)
  type wrapped = {
    predicate : Rrfd.Predicate.t;
    generator : Dsim.Rng.t -> n:int -> Rrfd.Detector.t;
    properties : Check.Property.t list;
  }

  let wrap env (c : counts) =
    let predicate =
      Rrfd.Predicate.make ~name:(Rrfd.Predicate.name env.pred)
        ~doc:(Rrfd.Predicate.doc env.pred)
        ~incr:(fun h ~round ->
          c.checks <- c.checks + 1;
          Rrfd.Predicate.check_round env.pred h ~round)
        (fun h -> Rrfd.Predicate.explain env.pred h)
    in
    let generator rng ~n =
      Rrfd.Detector.map ~name:"counted"
        (fun _ sets ->
          c.queries <- c.queries + 1;
          c.rounds <- c.rounds + 1;
          sets)
        (env.gen rng ~n)
    in
    let properties =
      match env.props with
      | [] -> []
      | first :: rest ->
        Check.Property.make ~name:(Check.Property.name first)
          ~doc:(Check.Property.doc first) (fun obs ->
            c.execs <- c.execs + 1;
            c.rounds <- c.rounds + obs.Check.Property.rounds_used;
            c.digest <- mix_decisions c.digest obs.Check.Property.decisions;
            Check.Property.check first obs)
        :: rest
    in
    { predicate; generator; properties }

  let verdict env (c : counts) ~e0 ~found =
    let execs = c.execs - e0 in
    { execs; ok = (not found) && execs = env.trials; digest = c.digest }

  let op env (c : counts) ~seed i =
    let w = wrap env c in
    let e0 = c.execs in
    let found =
      Check.Checker.fuzz
        {
          Check.Checker.n;
          rounds;
          trials = env.trials;
          seed = Dsim.Rng.derive_seed seed i;
          jobs = Some 1;
          attempts = 64;
        }
        ~sut:env.sut ~predicate:w.predicate ~generator:w.generator
        ~properties:w.properties ()
    in
    verdict env c ~e0 ~found:(Option.is_some found)

  (* One trial of [Checker.fuzz]'s constructive mode: draw a detector, run
     the SUT live, replay the produced history, evaluate the properties.
     [record] sees each trial's live and replayed observations. *)
  let trial env w span ~seed_i ~record t =
    let sp_trial = Span.id span "campaign.trial"
    and sp_draw = Span.id span "detector.draw"
    and sp_run = Span.id span "sut.run"
    and sp_replay = Span.id span "sut.run_history"
    and sp_prop = Span.id span "property.first_failure" in
    Span.with_ span sp_trial (fun () ->
        let rng = Dsim.Rng.derive ~seed:seed_i ~stream:t in
        let detector = Span.with_ span sp_draw (fun () -> w.generator rng ~n) in
        let live =
          Span.with_ span sp_run (fun () ->
              Check.Sut.run env.sut ~n ~max_rounds:rounds ~check:w.predicate
                ~detector)
        in
        if live.Check.Property.violation <> None then false
        else begin
          let replay =
            Span.with_ span sp_replay (fun () ->
                Check.Sut.run_history env.sut ~check:w.predicate
                  live.Check.Property.history)
          in
          record t live replay;
          replay.Check.Property.violation = None
          && Span.with_ span sp_prop (fun () ->
                 Check.Property.first_failure w.properties replay)
             <> None
        end)

  let traced ?(record = fun _ _ _ -> ()) env span (c : counts) ~seed i =
    let w = wrap env c in
    let e0 = c.execs in
    let seed_i = Dsim.Rng.derive_seed seed i in
    let rec go t =
      t < env.trials && (trial env w span ~seed_i ~record t || go (t + 1))
    in
    let found =
      Span.with_ span (Span.id span "op") (fun () -> go 0)
    in
    verdict env c ~e0 ~found
end

(* {1 derive-lossy}

   Derivation and certification of the heard-of predicate of a lossy,
   duplicating network: the msgnet round layer under an adversary,
   heard-of extraction, and whole-history predicate evaluation over the
   candidate vocabulary.  The Submodel lattice is built in set-up. *)
module Derive_lossy = struct
  let policy = "drop:p=15+dup:p=15"

  let expected = [ "async:f=2"; "no-self" ]

  type base = {
    cfg : Check.Derive.config;
    adversary : Msgnet.Adversary.t;
    specs : string array;
    preds : Rrfd.Predicate.t array;
  }

  let base ?(observe = 200) ?(certify = 200) () =
    let cfg =
      {
        Check.Derive.default_config with
        observe_trials = observe;
        certify_trials = certify;
        jobs = Some 1;
      }
    in
    let specs = Array.of_list (Check.Derive.candidates ~n:cfg.n ~f:cfg.f) in
    {
      cfg;
      adversary = ok_exn (Check.Spec.adversary policy);
      specs;
      preds = Array.map (fun s -> ok_exn (Check.Spec.predicate s)) specs;
    }

  type env = {
    base : base;
    lattice : Rrfd.Submodel.lattice;
    expect : string list;  (** sorted conjuncts a correct op derives *)
  }

  let setup ?observe ?certify ?(expect = expected) () =
    let base = base ?observe ?certify () in
    {
      base;
      lattice = ok_exn (Check.Derive.lattice_for ~cfg:base.cfg);
      expect = List.sort compare expect;
    }

  let execs b = b.cfg.observe_trials + b.cfg.certify_trials

  let result_digest ~sound ~conjuncts ~witness_trials ~certified =
    let str d s = mix d (Hashtbl.hash s) in
    let d = List.fold_left str 17 sound in
    let d = List.fold_left str d conjuncts in
    mix (List.fold_left mix d witness_trials) (Bool.to_int certified)

  let finish env (c : counts) ~sound ~conjuncts ~witness_trials ~certified =
    c.digest <-
      mix c.digest (result_digest ~sound ~conjuncts ~witness_trials ~certified);
    {
      execs = execs env.base;
      ok = certified && List.sort compare conjuncts = env.expect;
      digest = c.digest;
    }

  let op env (c : counts) ~seed i =
    let cfg = { env.base.cfg with seed = Dsim.Rng.derive_seed seed i } in
    match Check.Derive.derive ~lattice:env.lattice ~cfg ~policy () with
    | Error _ -> { execs = 0; ok = false; digest = c.digest }
    | Ok o ->
      c.execs <- c.execs + execs env.base;
      Array.iter
        (fun (k : Rrfd.Counters.t) ->
          c.rounds <- c.rounds + k.rounds;
          c.delivered <- c.delivered + k.messages)
        o.Check.Derive.counters;
      let witness_trials =
        List.map
          (fun w ->
            match w.Check.Derive.source with
            | Check.Derive.Fuzz t -> t
            | Check.Derive.Exhaustive -> -1)
          o.Check.Derive.witnesses
      in
      let r =
        finish env c ~sound:o.Check.Derive.sound
          ~conjuncts:o.Check.Derive.conjuncts ~witness_trials
          ~certified:o.Check.Derive.certified
      in
      { r with ok = r.ok && Check.Derive.ok o }

  (* One policy execution, as [Derive.induced_history] runs it: the
     full-information algorithm over the damaged network.  Returns the
     round-layer seed and the induced history. *)
  let exec b span (c : counts) rng =
    let seed = Dsim.Rng.bits30 rng in
    let n = b.cfg.n in
    let r =
      Span.with_ span (Span.id span "round_layer.run") (fun () ->
          Msgnet.Round_layer.run ~seed ~adversary:b.adversary ~n ~f:b.cfg.f
            ~rounds:b.cfg.rounds
            ~algorithm:(Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n))
            ())
    in
    c.execs <- c.execs + 1;
    c.rounds <- c.rounds + r.Msgnet.Round_layer.counters.Rrfd.Counters.rounds;
    c.sent <- c.sent + r.Msgnet.Round_layer.messages_sent;
    c.delivered <- c.delivered + r.Msgnet.Round_layer.messages_delivered;
    (seed, r.Msgnet.Round_layer.induced)

  (* The observation pass: one violation bitmask per execution. *)
  let observe ?(record = fun _ _ -> ()) b span (c : counts) ~seed_i =
    let sp_holds = Span.id span "predicate.holds" in
    let oseed = Dsim.Rng.derive_seed seed_i 1 in
    Array.init b.cfg.observe_trials (fun t ->
        let seed, h = exec b span c (Dsim.Rng.derive ~seed:oseed ~stream:t) in
        record seed h;
        ignore (Rrfd.Fault_history.to_string_compact h : string);
        let mask = ref 0 in
        Array.iteri
          (fun k p ->
            c.checks <- c.checks + 1;
            if not (Span.with_ span sp_holds (fun () -> Rrfd.Predicate.holds p h))
            then mask := !mask lor (1 lsl k))
          b.preds;
        !mask)

  let traced env span (c : counts) ~seed i =
    let b = env.base in
    let seed_i = Dsim.Rng.derive_seed seed i in
    Span.with_ span (Span.id span "op") (fun () ->
        let masks = observe b span c ~seed_i in
        let violated = Array.fold_left ( lor ) 0 masks in
        let idx = List.init (Array.length b.specs) Fun.id in
        let sound_idx, refuted_idx =
          List.partition (fun k -> violated land (1 lsl k) = 0) idx
        in
        let spec k = b.specs.(k) in
        let sound = List.map spec sound_idx in
        let witness_trials =
          List.map
            (fun k ->
              let rec first t =
                if masks.(t) land (1 lsl k) <> 0 then t else first (t + 1)
              in
              first 0)
            refuted_idx
        in
        let conjuncts =
          Span.with_ span (Span.id span "submodel.naming") (fun () ->
              let lat = env.lattice in
              let conjuncts = Rrfd.Submodel.minimal_conjuncts lat sound in
              let refuted = List.map spec refuted_idx in
              let degenerate, orderable =
                List.partition
                  (fun s -> s <> "true" && Rrfd.Submodel.equivalent lat s "true")
                  refuted
              in
              ignore (Rrfd.Submodel.weakest lat orderable @ degenerate);
              conjuncts)
        in
        let derived =
          match List.map (fun k -> b.preds.(k)) sound_idx with
          | [] -> Rrfd.Predicate.always
          | p :: rest -> List.fold_left Rrfd.Predicate.conj p rest
        in
        let sp_holds = Span.id span "predicate.holds" in
        let cseed = Dsim.Rng.derive_seed seed_i 2 in
        let rec certify t =
          t >= b.cfg.certify_trials
          ||
          let _, h = exec b span c (Dsim.Rng.derive ~seed:cseed ~stream:t) in
          c.checks <- c.checks + List.length sound_idx;
          Span.with_ span sp_holds (fun () -> Rrfd.Predicate.holds derived h)
          && certify (t + 1)
        in
        let certified = certify 0 in
        finish env c ~sound ~conjuncts ~witness_trials ~certified)
end

(* {1 ct-n64}

   One failure-free Chandra–Toueg consensus instance at n = 64 with E25's
   scale parameters: about n² pending simulator events, every process
   set in the multi-word representation. *)
module Ct_n64 = struct
  type env = {
    n : int;
    expect : int list;
        (** E25 checksums of the unanimous decision vectors a correct
            instance can produce (inputs are [i mod 3]). *)
  }

  let setup ?(n = 64) () =
    {
      n;
      expect =
        List.map
          (fun v ->
            Experiments.E25_scale.checksum_decisions (Array.make n (Some v)))
          [ 0; 1; 2 ];
    }

  let op env (c : counts) ~seed i =
    let rng = Dsim.Rng.create (Dsim.Rng.derive_seed seed i) in
    let d = Experiments.E25_scale.run_probe "ct" ~rng ~n:env.n in
    let k = d.Experiments.E25_scale.counters in
    c.execs <- c.execs + 1;
    c.rounds <- c.rounds + k.Rrfd.Counters.rounds;
    c.sent <- c.sent + k.Rrfd.Counters.messages;
    c.digest <- mix c.digest d.Experiments.E25_scale.checksum;
    {
      execs = 1;
      ok =
        d.Experiments.E25_scale.ok
        && List.mem d.Experiments.E25_scale.checksum env.expect;
      digest = c.digest;
    }

  let traced env span c ~seed i =
    Span.with_ span (Span.id span "op") (fun () ->
        Span.with_ span (Span.id span "ct_consensus.run") (fun () ->
            op env c ~seed i))
end

(* {1 The workload table} *)

type runner = {
  run : counts -> seed:int -> int -> op;
  traced : Span.t -> counts -> seed:int -> int -> op;
}

type t = {
  name : string;
  ops : int;  (** measured ops per run; a constant of the benchmark *)
  setup_reps : int;  (** set-ups per run; [setup_s] is their median *)
  traced_ops : int;  (** ops of the traced run, each run both ways *)
  prepare : unit -> runner;  (** the set-up *)
}

let check_phased ?trials () () =
  let env = Check_phased.setup ?trials () in
  { run = Check_phased.op env; traced = Check_phased.traced env }

let derive_lossy ?observe ?certify ?expect () () =
  let env = Derive_lossy.setup ?observe ?certify ?expect () in
  { run = Derive_lossy.op env; traced = Derive_lossy.traced env }

let ct_n64 ?n () () =
  let env = Ct_n64.setup ?n () in
  { run = Ct_n64.op env; traced = Ct_n64.traced env }

let all =
  [
    {
      name = "check-phased";
      ops = 3000;
      setup_reps = 21;
      traced_ops = 60;
      prepare = check_phased ();
    };
    {
      name = "derive-lossy";
      ops = 1000;
      setup_reps = 5;
      traced_ops = 16;
      prepare = derive_lossy ();
    };
    {
      name = "ct-n64";
      ops = 3000;
      setup_reps = 21;
      traced_ops = 300;
      prepare = ct_n64 ();
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
