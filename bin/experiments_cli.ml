(* Command-line runner for the paper's experiments (E1-E26).

   `rrfd-experiments list`            enumerate experiments
   `rrfd-experiments run E6 E9`       run selected experiments
   `rrfd-experiments run E22 --json F` run one, write its table artifact
   `rrfd-experiments all`             run everything
   `rrfd-experiments faultnet`        fault-injection + heard-of replay
   `rrfd-experiments live`            real domains + live heard-of replay
   `rrfd-experiments scale`           large-n grid / throughput gate
   `rrfd-experiments byz`             Byzantine fork accountability (E24)
   `rrfd-experiments derive`          derive+certify heard-of predicates (E26)
   options: --seed, --trials, -j/--jobs *)

(* The raw OS monotonic clock, for the scale throughput measurements. *)
module Mclock = Monotonic_clock

open Cmdliner

let seed_arg =
  let doc = "Random seed; every experiment is reproducible from it." in
  Arg.(value & opt int Experiments.Registry.default_seed & info [ "seed" ] ~doc)

(* {1 Shared subcommand pieces}

   One definition per option several subcommands take; they differ only
   in default and doc. *)

(* A bad spec, artifact or size is a usage error: say why, exit 2. *)
let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 2)
    fmt

let or_die = function Ok v -> v | Error msg -> usage_error "%s" msg

let exit_code ok = if ok then 0 else 1

let opt_arg name ?docv ~doc typ default =
  Arg.(value & opt typ default & info [ name ] ?docv ~doc)

let in_range name ~lo ~hi v =
  if v < lo || v > hi then
    if hi = max_int then usage_error "--%s must be at least %d, got %d" name lo v
    else usage_error "--%s must be in %d..%d, got %d" name lo hi v;
  v

(* Integer options whose out-of-range values are usage errors, not
   exceptions deep inside a run. *)
let int_arg name ?docv ~doc ?(lo = 0) ?(hi = max_int) default =
  Term.map (in_range name ~lo ~hi) (opt_arg name ?docv ~doc Arg.int default)

let int_opt_arg name ?docv ~doc ?(lo = 0) ?(hi = max_int) () =
  Term.map
    (Option.map (in_range name ~lo ~hi))
    (opt_arg name ?docv ~doc Arg.(some int) None)

let trials_arg =
  int_opt_arg "trials" ~doc:"Override the per-configuration trial count." ()

(* One domain per worker, the calling one included, and the OCaml runtime
   allows 128 domains: the same cap as live's one domain per process. *)
let jobs_arg =
  let max_jobs = Live.max_processes in
  let doc =
    Printf.sprintf
      "Worker domains for Monte-Carlo campaigns (default: all cores), at \
       most %d (the OCaml runtime allows 128 domains); values below 2 run \
       serially.  Tables are bit-identical for every value: trial RNGs \
       derive from (seed, trial index), so -j only changes wall-clock time."
      max_jobs
  in
  let at_most_max j =
    if j > max_jobs then
      usage_error "-j/--jobs must be at most %d, got %d" max_jobs j;
    j
  in
  Term.map (Option.map at_most_max)
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc)

let n_arg ?(doc = "System size.") ?(hi = Rrfd.Pset.max_universe) n =
  int_arg "n" ~doc ~lo:1 ~hi n

let rounds_arg ~doc rounds = int_arg "rounds" ~doc rounds

let rounds_opt_arg ~doc = int_opt_arg "rounds" ~doc ()

(* [(n, f)], with [f] defaulting to a minority of [n] and bounded by it. *)
let n_minority_f_arg ?hi n =
  let f =
    opt_arg "f" ~doc:"Resilience (default: a minority, (n-1)/2)."
      Arg.(some int) None
  in
  Term.(
    const (fun n f ->
        (n, in_range "f" ~lo:0 ~hi:(n - 1) (Option.value f ~default:((n - 1) / 2))))
    $ n_arg ?hi n $ f)

let file_arg ?(docv = "FILE") name doc =
  opt_arg name ~docv ~doc Arg.(some string) None

(* An artifact-writing option: the one place the [auto] naming rule
   applies, so the path a run receives is already resolved. *)
let out_arg ~prefix name doc =
  let doc =
    Printf.sprintf "%s  $(b,auto) names the file %s_<git-sha>.json." doc prefix
  in
  let path = file_arg name doc in
  Term.(const (Option.map (Report.artifact_path ~prefix)) $ path)

let json_arg ~prefix doc = out_arg ~prefix "json" doc

let save_arg ~prefix doc = out_arg ~prefix "save" doc

let replay_arg doc = file_arg "replay" doc

(* Write an artifact through its codec and say where. *)
let save_to ?(indent = "") ?pretty codec path x =
  Report.write ?pretty codec path x;
  Printf.printf "%sartifact written to %s\n" indent path

(* The tail of every grid run: print the table, write the artifact if
   --json asked for one, exit 0 iff every row is ok. *)
let finish_grid ~json table artifact =
  Experiments.Table.print table;
  Option.iter (fun path -> save_to Report.Codec.json path (artifact ())) json;
  exit_code (Experiments.Table.ok table)

(* The induced history of a network or live run, with its P1-P5
   classification at [f]; returns the classification. *)
let print_induced ~f induced =
  Format.printf "  induced history:@;<1 4>@[<v>%a@]@." Rrfd.Fault_history.pp
    induced;
  Printf.printf "  compact: %s\n" (Rrfd.Fault_history.to_string_compact induced);
  let held = Msgnet.Heard_of.classify ~f induced in
  Printf.printf "  predicates (f=%d): %s\n" f
    (String.concat "  "
       (List.map
          (fun (p, b) -> Printf.sprintf "%s=%s" p (if b then "yes" else "no"))
          held));
  held

let list_cmd =
  let run () =
    List.iter
      (fun e ->
        Printf.printf "%-4s %s\n" e.Experiments.Registry.id
          e.Experiments.Registry.title)
      Experiments.Registry.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the experiments and what they reproduce.")
    Term.(const run $ const ())

let run_tables tables =
  List.iter Experiments.Table.print tables;
  let failed =
    List.filter (fun t -> not (Experiments.Table.ok t)) tables
  in
  if failed = [] then begin
    Printf.printf "\nAll %d experiment table(s) match the paper's claims.\n"
      (List.length tables);
    0
  end
  else begin
    Printf.printf "\n%d experiment table(s) FAILED: %s\n" (List.length failed)
      (String.concat ", " (List.map (fun t -> t.Experiments.Table.id) failed));
    1
  end

let run_cmd =
  let ids_arg =
    let doc = "Experiment ids to run (e.g. E6 e9)." in
    Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let json_arg =
    json_arg ~prefix:"TABLE"
      "Also write the table to $(docv) as compact JSON (id, seed, header, \
       rows, ok), with E21, E22, E24 and E26 adding every trial's or row's \
       detail.  Takes exactly one ID.  The output depends only on --seed \
       and --trials — never on -j — which is what the smoke gates compare."
  in
  let run seed trials jobs json ids =
    if json <> None && List.length ids <> 1 then
      usage_error "--json takes exactly one experiment id, got %d"
        (List.length ids);
    let entries =
      List.map
        (fun id ->
          match Experiments.Registry.find id with
          | Some e -> e
          | None -> usage_error "unknown experiment %S (try `list`)" id)
        ids
    in
    let results =
      List.map (fun e -> e.Experiments.Registry.run ~seed ~trials ~jobs) entries
    in
    let code = run_tables (List.map fst results) in
    (match (json, results) with
    | Some path, [ (table, extra) ] ->
      save_to Report.Codec.json path
        (Experiments.Table.to_json ~seed ?extra table)
    | _ -> ());
    code
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run selected experiments, optionally writing one's table artifact.")
    Term.(const run $ seed_arg $ trials_arg $ jobs_arg $ json_arg $ ids_arg)

let all_cmd =
  let run seed trials jobs =
    run_tables
      (List.map
         (fun e -> fst (e.Experiments.Registry.run ~seed ~trials ~jobs))
         Experiments.Registry.all)
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment (E1-E26).")
    Term.(const run $ seed_arg $ trials_arg $ jobs_arg)

(* `lattice` — print the submodel relation between two predicate specs at
   a configurable (small) system size. *)
let lattice_cmd =
  let pred_arg i docv =
    let doc = "Predicate spec: " ^ Check.Spec.predicate_names ^ "." in
    Arg.(required & pos i (some string) None & info [] ~docv ~doc)
  in
  let run a b n rounds =
    let pa = or_die (Check.Spec.predicate a)
    and pb = or_die (Check.Spec.predicate b) in
    (match Rrfd.Submodel.check_exhaustive ~n ~rounds pa pb with
    | Rrfd.Submodel.Implies ->
      Printf.printf "%s ⇒ %s over every ≤%d-round %d-process history\n"
        (Rrfd.Predicate.name pa) (Rrfd.Predicate.name pb) rounds n
    | Rrfd.Submodel.Counterexample h ->
      Printf.printf "%s ⇏ %s; counterexample:\n  %s\n"
        (Rrfd.Predicate.name pa) (Rrfd.Predicate.name pb)
        (Rrfd.Fault_history.to_string_compact h));
    0
  in
  Cmd.v
    (Cmd.info "lattice"
       ~doc:"Check a submodel relation (Sec. 2) exhaustively at a small size.")
    Term.(
      const run $ pred_arg 0 "LEFT" $ pred_arg 1 "RIGHT"
      $ n_arg ~doc:"System size (the space is ((2^n-1)^n)^rounds)." ~hi:4 3
      $ rounds_arg ~doc:"History length (keep ≤ 2)." 2)

(* `trace` — run any catalog protocol under a chosen model and print the
   full transcript.  Protocol names, printers and horizons all come from
   the catalog; nothing here is per-protocol. *)
let trace_cmd =
  let protocol_arg =
    let doc =
      "Catalog protocol to trace: "
      ^ String.concat ", " Protocols.Catalog.names
      ^ "."
    in
    Arg.(
      value
      & opt string "kset-one-round"
      & info [ "protocol" ] ~docv:"NAME" ~doc)
  in
  let n_arg =
    int_opt_arg "n" ~lo:1 ~hi:Rrfd.Pset.max_universe ()
      ~doc:
        "System size (default: 6 for k-set protocols, the catalog default \
         otherwise)."
  in
  let k_arg =
    int_arg "k" ~lo:1 ~doc:"Agreement bound (k-set protocols only)." 2
  in
  let run seed protocol n k =
    match Protocols.Catalog.find protocol with
    | None ->
      Printf.eprintf "unknown protocol %s, expected one of: %s\n" protocol
        (String.concat ", " Protocols.Catalog.names);
      2
    | Some proto ->
      let is_kset = String.length protocol >= 4 && String.sub protocol 0 4 = "kset" in
      let n =
        match n with
        | Some n -> n
        | None -> if is_kset then 6 else Protocols.Catalog.default_n proto
      in
      let f =
        if is_kset then in_range "k" ~lo:1 ~hi:n k - 1
        else Protocols.Catalog.default_f proto ~n
      in
      if f >= n then usage_error "trace: %s needs n > f = %d" protocol f;
      let inputs = Tasks.Inputs.distinct n in
      let rng = Dsim.Rng.create seed in
      let detector =
        if is_kset then Rrfd.Detector_gen.k_set rng ~n ~k
        else Rrfd.Detector_gen.crash rng ~n ~f
      in
      let check = if is_kset then Some (Rrfd.Predicate.k_set ~k) else None in
      let max_rounds = max 1 (Protocols.Catalog.horizon proto ~n ~f) in
      let transcript, outcome =
        Protocols.Catalog.transcript proto ~inputs ?check ~n ~f ~max_rounds
          ~detector ()
      in
      print_endline transcript;
      Printf.printf "history: %s\n"
        (Rrfd.Fault_history.to_string_compact outcome.Rrfd.Substrate.induced);
      if is_kset then (
        match
          Tasks.Agreement.check ~k ~inputs outcome.Rrfd.Substrate.decisions
        with
        | None ->
          Printf.printf "%d-set agreement: OK\n" k;
          0
        | Some reason ->
          Printf.printf "%d-set agreement VIOLATED: %s\n" k reason;
          1)
      else begin
        Format.printf "decisions: @[<h>%a@]@."
          (Format.pp_print_array
             ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " ")
             (fun fmt d ->
               match d with
               | None -> Format.pp_print_string fmt "-"
               | Some v -> Protocols.Catalog.pp_out proto fmt v))
          outcome.Rrfd.Substrate.decisions;
        0
      end
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a catalog protocol on the abstract engine and print the full \
          round-by-round transcript.")
    Term.(const run $ seed_arg $ protocol_arg $ n_arg $ k_arg)

(* `check` — the schedule-space model checker: fuzz (or exhaustively
   enumerate) predicate-satisfying fault histories hunting for one that
   makes a system violate a safety property, shrink it, persist it as a
   JSON artifact, and replay such artifacts deterministically. *)
let check_cmd =
  let sut_arg =
    let doc = "System under test: " ^ Check.Spec.sut_names ^ "." in
    Arg.(value & opt string "kset-one-round" & info [ "sut" ] ~docv:"SUT" ~doc)
  in
  let predicate_arg =
    let doc =
      "RRFD predicate the histories must satisfy (the model under test): "
      ^ Check.Spec.predicate_names
      ^ ".  Weaken it deliberately (e.g. kset:k=3 against k-agreement:k=2) \
         to watch the checker refute the theorem's converse."
    in
    Arg.(
      value & opt (some string) None & info [ "predicate" ] ~docv:"PRED" ~doc)
  in
  let generator_arg =
    let doc =
      "Constructive sampling: draw histories from this detector generator \
       instead of rejection sampling ("
      ^ Check.Spec.generator_names ^ ")."
    in
    Arg.(value & opt (some string) None & info [ "generator" ] ~docv:"GEN" ~doc)
  in
  let property_arg =
    let doc =
      "Safety property to check (repeatable): " ^ Check.Spec.property_names
      ^ ".  Default: the SUT's own specification."
    in
    Arg.(value & opt_all string [] & info [ "property" ] ~docv:"PROP" ~doc)
  in
  let rounds_arg =
    rounds_opt_arg
      ~doc:"History length to explore (default: what the SUT needs)."
  in
  let trials_arg = int_arg "trials" ~doc:"Fuzzing trials." 1000 in
  let attempts_arg =
    int_arg "attempts" ~lo:1
      ~doc:"Per-round rejection budget when sampling histories." 64
  in
  let exhaustive_arg =
    let doc =
      "Enumerate every history of the given size instead of fuzzing \
       (requires n ≤ 4; keep rounds ≤ 2)."
    in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let save_arg =
    save_arg ~prefix:"CHECK" "Write the counterexample artifact (JSON) to $(docv)."
  in
  let expect_arg =
    let doc =
      "Invert the exit status: succeed iff a violation was found (CI smoke \
       checks that seeded violations stay findable)."
    in
    Arg.(value & flag & info [ "expect-violation" ] ~doc)
  in
  let replay_arg =
    replay_arg
      "Replay the counterexample artifact at $(docv): re-execute its \
       history and verify the recorded decision vector bit-for-bit."
  in
  let trace_flag =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the full transcript.")
  in
  let pp_decisions pp_out ppf decisions =
    Array.iteri
      (fun i d ->
        if i > 0 then Format.fprintf ppf " ";
        match d with
        | None -> Format.fprintf ppf "p%d→⊥" i
        | Some v -> Format.fprintf ppf "p%d→%a" i pp_out v)
      decisions
  in
  let print_counterexample ~sut ce =
    let open Check.Checker in
    Printf.printf "COUNTEREXAMPLE refuting %s under %s\n" ce.sut ce.property;
    (match ce.trial with
    | -1 -> Printf.printf "  found by exhaustive enumeration"
    | t -> Printf.printf "  found at trial %d" t);
    Printf.printf ", shrunk in %d step(s) to:\n" ce.shrink_steps;
    Format.printf "  @[<v>%a@]@." Rrfd.Fault_history.pp ce.history;
    Printf.printf "  compact: %s\n"
      (Rrfd.Fault_history.to_string_compact ce.history);
    Format.printf "  decisions: %a@."
      (pp_decisions (Check.Sut.pp_out sut))
      ce.decisions;
    Printf.printf "  failure: %s\n" ce.failure
  in
  let do_replay path with_trace =
    let artifact = or_die (Report.read Check.Artifact.codec path) in
    let ce = artifact.Check.Artifact.counterexample in
    Printf.printf
      "replaying %s: sut %s, predicate %s, property %s (seed %d, trial %d)\n"
      path artifact.Check.Artifact.sut artifact.Check.Artifact.predicate
      ce.Check.Checker.property artifact.Check.Artifact.seed
      ce.Check.Checker.trial;
    Printf.printf "  history: %s\n"
      (Rrfd.Fault_history.to_string_compact ce.Check.Checker.history);
    let replay = or_die (Check.Artifact.replay artifact) in
    let sut = or_die (Check.Spec.sut artifact.Check.Artifact.sut) in
    if with_trace then
      Printf.printf "%s\n" replay.Check.Artifact.transcript;
    Format.printf "  decisions: %a@."
      (pp_decisions (Check.Sut.pp_out sut))
      replay.Check.Artifact.obs.Check.Property.decisions;
    (match replay.Check.Artifact.failure with
    | Some (prop, msg) -> Printf.printf "  failure: %s: %s\n" prop msg
    | None when replay.Check.Artifact.failure_expected ->
      Printf.printf "  failure: none (property holds on replay!)\n"
    | None -> Printf.printf "  failure: none (clean recording, as expected)\n");
    if Check.Artifact.reproduced replay then begin
      Printf.printf "replay REPRODUCED the recorded decision vector exactly.\n";
      0
    end
    else begin
      Printf.printf
        "replay DIVERGED from the recording (decisions %s, failure %s, \
         expected %s).\n"
        (if replay.Check.Artifact.decisions_match then "match" else "differ")
        (if replay.Check.Artifact.failure = None then "absent" else "present")
        (if replay.Check.Artifact.failure_expected then "present" else "absent");
      1
    end
  in
  let run seed trials jobs sut_spec predicate_spec generator_spec
      property_specs n rounds attempts exhaustive save expect replay
      with_trace =
    match replay with
    | Some path -> do_replay path with_trace
    | None ->
      let sut = or_die (Check.Spec.sut sut_spec) in
      let generator =
        Option.map
          (fun spec -> (spec, or_die (Check.Spec.generator spec)))
          generator_spec
      in
      let predicate_spec, predicate =
        match (predicate_spec, generator) with
        | Some spec, _ -> (spec, or_die (Check.Spec.predicate spec))
        | None, Some (spec, (_, paired)) -> (spec, paired)
        | None, None -> ("kset:k=2", or_die (Check.Spec.predicate "kset:k=2"))
      in
      let property_specs =
        match property_specs with
        | [] -> Check.Spec.default_properties sut
        | specs -> specs
      in
      let properties =
        List.map (fun s -> or_die (Check.Spec.property s)) property_specs
      in
      let rounds =
        match rounds with Some r -> r | None -> Check.Sut.rounds sut
      in
      if exhaustive && n > 4 then
        usage_error
          "--exhaustive needs n <= 4 (the space is ((2^n-1)^n)^rounds); got \
           n=%d"
          n;
      let found =
        if exhaustive then
          Check.Checker.exhaustive ?jobs ~n ~rounds ~sut ~predicate
            ~properties ()
        else
          Check.Checker.fuzz
            { Check.Checker.n; rounds; trials; seed; jobs; attempts }
            ~sut ~predicate
            ?generator:(Option.map (fun (_, (gen, _)) -> gen) generator)
            ~properties ()
      in
      (match found with
      | None ->
        if exhaustive then
          Printf.printf
            "no counterexample: every %d-round %d-process history satisfying \
             %s keeps %s safe.\n"
            rounds n
            (Rrfd.Predicate.name predicate)
            (String.concat " ∧ " property_specs)
        else
          Printf.printf "no counterexample in %d trial(s) (seed %d).\n" trials
            seed
      | Some ce ->
        print_counterexample ~sut ce;
        if with_trace then
          Printf.printf "%s\n"
            (Check.Sut.transcript sut ~check:predicate
               ce.Check.Checker.history);
        Option.iter
          (fun path ->
            save_to ~pretty:true Check.Artifact.codec path
              (Check.Artifact.make ~sut_spec ~predicate_spec ~property_specs
                 ~seed ce))
          save);
      let violated = found <> None in
      exit_code (violated = expect)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Model-check a protocol over the schedule space of an RRFD \
          predicate: fuzz or exhaustively enumerate fault histories, shrink \
          any property violation to a minimal history, and save/replay it \
          as a JSON artifact.")
    Term.(
      const run $ seed_arg $ trials_arg $ jobs_arg $ sut_arg $ predicate_arg
      $ generator_arg $ property_arg $ n_arg 4 $ rounds_arg $ attempts_arg
      $ exhaustive_arg $ save_arg $ expect_arg $ replay_arg $ trace_flag)

(* `faultnet` — drive the fault-injection network layer: run one adversary
   spec through the round layer and the heard-of differential oracle.  The
   full E21 grid is `run E21`. *)
let faultnet_cmd =
  let adversary_arg =
    let doc =
      "Adversary policy, atoms joined with '+': " ^ Check.Spec.adversary_names
      ^ ".  Probabilities are percentages, e.g. \
         drop:p=20+dup:p=10,copies=2."
    in
    Arg.(
      value & opt string "drop:p=20" & info [ "adversary" ] ~docv:"SPEC" ~doc)
  in
  let run seed spec (n, f) rounds =
    let adversary = or_die (Check.Spec.adversary spec) in
    let algorithm = Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n) in
    let o =
      (* The round layer rejects an empty run: a usage error, not a
         crash. *)
      or_die
        (match
           Msgnet.Round_layer.run ~seed ~adversary ~n ~f ~rounds ~algorithm ()
         with
        | o -> Ok o
        | exception Invalid_argument msg -> Error ("faultnet: " ^ msg))
    in
    let ex = Msgnet.Round_layer.execution o in
    let matched =
      Rrfd.Substrate.agrees ~equal:Rrfd.Full_info.equal ex
        ~replayed:(Msgnet.Heard_of.replay_decisions ~algorithm ex.induced)
    in
    Printf.printf "faultnet: %s over n=%d f=%d rounds=%d (seed %d)\n" spec n f
      rounds seed;
    Printf.printf "  messages: sent=%d delivered=%d dropped=%d duplicated=%d\n"
      o.messages_sent o.messages_delivered o.messages_dropped
      o.messages_duplicated;
    Printf.printf "  completed rounds: %s  (virtual time %.1f)\n"
      (String.concat " " (Array.to_list (Array.map string_of_int o.completed)))
      o.virtual_time;
    let p3 = List.assoc "P3" (print_induced ~f ex.induced) in
    if matched then
      Printf.printf "  replay: engine decisions match the network's%s.\n"
        (if Array.for_all (( = ) rounds) o.completed then ""
         else " over the completed prefix")
    else Printf.printf "  replay: DIVERGED from the abstract engine.\n";
    if not p3 then
      Printf.printf
        "  P3 VIOLATED: some D(i,r) exceeds f — the round layer's guarantee \
         broke.\n";
    exit_code (matched && p3)
  in
  Cmd.v
    (Cmd.info "faultnet"
       ~doc:
         "Damage the asynchronous network with a fault-injection adversary, \
          extract the induced heard-of fault history, classify it against \
          the paper's predicate ladder and differentially replay it on the \
          abstract engine (the whole E21 grid is `run E21`).")
    Term.(
      const run $ seed_arg $ adversary_arg
      $ n_minority_f_arg 5
      $ rounds_arg ~doc:"Simulated rounds." 4)

(* `live` — the real-concurrency substrate: run a protocol with one OCaml
   domain per process, extract the heard-of history the scheduler induced,
   classify it and validate the pinned engine replay against the live
   decisions.  Modes: one narrated run (default), a --stress campaign of
   differential runs, --record to persist the run as a check-replayable
   artifact, and the E23 --grid whose --json artifact regenerates
   deterministically from recorded histories (--from). *)
let live_cmd =
  let protocol_arg =
    let doc =
      "Protocol to run (see `rrfd-experiments check --help` for the \
       catalog names)."
    in
    Arg.(
      value
      & opt string "flood-consensus"
      & info [ "protocol" ] ~docv:"NAME" ~doc)
  in
  let rounds_arg =
    rounds_opt_arg
      ~doc:"Round horizon (default: the protocol's at n, f)."
  in
  let patience_arg =
    let doc =
      "Round-completion policy: " ^ Live.Patience.names
      ^ ".  Determines when a live process gives up on its peers — whom \
         it had not heard from by then becomes its fault set D(i,r)."
    in
    Arg.(value & opt string "quorum" & info [ "patience" ] ~docv:"SPEC" ~doc)
  in
  let stress_arg =
    let doc =
      "Run $(docv) live executions and require every one's pinned engine \
       replay to reproduce its decisions bit-for-bit."
    in
    int_opt_arg "stress" ~lo:1 ~docv:"N" ~doc ()
  in
  let record_arg =
    out_arg ~prefix:"LIVE" "record"
      "Write the run's extracted history as a check-replayable artifact \
       to $(docv); verify it later with `rrfd-experiments check --replay \
       PATH`."
  in
  let grid_arg =
    let doc =
      "Run the E23 n × patience grid instead of a single configuration \
       (--protocol/-n/--f/--rounds/--patience are ignored)."
    in
    Arg.(value & flag & info [ "grid" ] ~doc)
  in
  let json_arg =
    json_arg ~prefix:"LIVE"
      "With $(b,--grid): write every run's record (history, inputs, \
       decisions, wall time) to $(docv) as JSON.  Collection is \
       nondeterministic — the scheduler decides — but regeneration from a \
       recorded artifact ($(b,--from)) is byte-identical at any -j."
  in
  let from_arg =
    file_arg "from"
      "With $(b,--grid): skip the live phase and rebuild the table (and \
       --json artifact) deterministically from the records in $(docv)."
  in
  let find_protocol name =
    match Protocols.Catalog.find name with
    | Some p -> p
    | None ->
      Printf.eprintf "unknown protocol %S, expected one of: %s\n" name
        (String.concat ", " Protocols.Catalog.names);
      exit 2
  in
  (* The verdict on one live run: its pinned replay decides the same. *)
  let replay_agrees proto ~inputs ~f ex =
    Rrfd.Substrate.agrees ~equal:Int.equal ex
      ~replayed:
        (Protocols.Catalog.replay proto ~inputs ~f
           ~history:ex.Rrfd.Substrate.induced ())
          .Rrfd.Substrate.decisions
  in
  let run_single ~proto_name ~patience ~n ~f ~rounds ~record =
    let proto = find_protocol proto_name in
    let inputs = Protocols.Catalog.default_inputs ~n in
    let ex = Protocols.Catalog.run_live proto ~inputs ~patience ~n ~f ~rounds () in
    let matched = replay_agrees proto ~inputs ~f ex in
    Printf.printf "live: %s over n=%d f=%d rounds=%d, patience %s\n" proto_name
      n f rounds
      (Live.Patience.to_string patience);
    (match ex.Rrfd.Substrate.wall_ns with
    | Some ns -> Printf.printf "  wall clock: %.3f ms\n" (Int64.to_float ns /. 1e6)
    | None -> ());
    let induced = ex.Rrfd.Substrate.induced in
    ignore (print_induced ~f induced : (string * bool) list);
    if matched then
      Printf.printf "  replay: engine decisions match the live run's.\n"
    else Printf.printf "  replay: DIVERGED from the abstract engine.\n";
    let recorded_ok =
      match record with
      | None -> true
      | Some path -> (
        match
          Check.Artifact.record ~sut_spec:proto_name ~n ~history:induced ()
        with
        | Ok artifact ->
          Report.write ~pretty:true Check.Artifact.codec path artifact;
          Printf.printf
            "  recorded %s (verify: rrfd-experiments check --replay %s)\n"
            path path;
          true
        | Error msg ->
          Printf.printf "  record FAILED: %s\n" msg;
          false)
    in
    exit_code (matched && recorded_ok)
  in
  let run_stress ~seed ~proto_name ~patience ~n ~f ~rounds count =
    let proto = find_protocol proto_name in
    let mismatches = ref 0 in
    for trial = 0 to count - 1 do
      let rng = Dsim.Rng.derive ~seed ~stream:trial in
      let inputs = Protocols.Catalog.default_inputs ~n in
      Dsim.Rng.shuffle_in_place rng inputs;
      let ex = Protocols.Catalog.run_live proto ~inputs ~patience ~n ~f ~rounds () in
      if not (replay_agrees proto ~inputs ~f ex) then incr mismatches
    done;
    Printf.printf
      "live stress: %s, n=%d f=%d rounds=%d, patience %s: %d/%d replays \
       matched\n"
      proto_name n f rounds
      (Live.Patience.to_string patience)
      (count - !mismatches) count;
    exit_code (!mismatches = 0)
  in
  let run_grid ~seed ~trials ~jobs ~json ~from =
    let records =
      match from with
      | Some path -> or_die (Report.read Experiments.E23_live.codec path)
      | None -> Experiments.E23_live.collect ~seed ?trials ?jobs ()
    in
    finish_grid ~json (Experiments.E23_live.table_of records) (fun () ->
        Experiments.E23_live.codec.enc records)
  in
  let run seed trials jobs proto_name (n, f) rounds patience stress record
      grid json from =
    if grid then run_grid ~seed ~trials ~jobs ~json ~from
    else
      let patience = or_die (Live.Patience.of_spec patience) in
      let rounds =
        match rounds with
        | Some r -> r
        | None -> Protocols.Catalog.horizon (find_protocol proto_name) ~n ~f
      in
      match stress with
      | Some count -> run_stress ~seed ~proto_name ~patience ~n ~f ~rounds count
      | None -> run_single ~proto_name ~patience ~n ~f ~rounds ~record
  in
  Cmd.v
    (Cmd.info "live"
       ~doc:
         "Run a protocol on the live substrate — one OCaml domain per \
          process, real mailboxes, real clock — extract the heard-of fault \
          history the scheduler induced, classify it against the paper's \
          predicate ladder and differentially replay it pinned on the \
          abstract engine.  One run, a --stress campaign, a --record \
          artifact for check --replay, or the E23 --grid.")
    Term.(
      const run $ seed_arg $ trials_arg $ jobs_arg $ protocol_arg
      $ n_minority_f_arg ~hi:Live.max_processes 5 $ rounds_arg $ patience_arg $ stress_arg
      $ record_arg $ grid_arg $ json_arg $ from_arg)

(* `scale` — the E25 large-n grid on the wide Pset.  Default mode runs
   the correctness campaign (kset / heartbeat / ct at every --ns size)
   and optionally writes a deterministic JSON artifact: it depends only
   on --seed, --trials and --ns — never on -j — which is what the
   scale smoke gate compares byte-for-byte.  --bench instead times the
   same probes wall-clock, denominates them in work units (ns/run,
   ns/round, ns/msg) and gates them against a saved subjects-only BENCH
   report with --check/--tolerance. *)
let scale_cmd =
  let ns_arg =
    let doc =
      "Comma-separated system sizes to run the probes at.  Anything above \
       62 exercises the multi-word Pset representation; n = 10000, the \
       largest size accepted, is feasible for the kset probe but budget \
       minutes for the simulated network probes."
    in
    (* E25's kset probe runs k = 2, so every size needs n >= 2; 10000 is
       the largest size E25 documents (a run at 100000 did not finish). *)
    Term.map
      (List.map (in_range "ns" ~lo:2 ~hi:10000))
      Arg.(
        value & opt (list int) [ 100; 1000 ] & info [ "ns" ] ~docv:"N,N,..." ~doc)
  in
  let json_arg =
    json_arg ~prefix:"SCALE"
      "Write the grid's per-trial digests (ok flags, work counters, \
       decision checksums) to $(docv) as JSON.  With $(b,--bench): write \
       the throughput subjects as a BENCH report instead (the shape --check \
       consumes)."
  in
  let bench_arg =
    let doc =
      "Time the probes instead of campaigning them: wall-clock each \
       (probe, n) cell, report ns/run with ns/round and ns/msg work \
       denominators (plus rounds/s and msgs/s for humans)."
    in
    Arg.(value & flag & info [ "bench" ] ~doc)
  in
  let repeats_arg =
    int_arg "repeats" ~lo:1
      ~doc:"With $(b,--bench): timed repetitions per (probe, n) cell." 2
  in
  let check_arg =
    file_arg "check" ~docv:"BASELINE"
      "With $(b,--bench): compare the fresh throughput subjects against \
       the BENCH report at $(docv); exit non-zero on a regression beyond \
       --tolerance."
  in
  let tolerance_arg =
    let doc =
      "Allowed ns/run slowdown (percent) before --check fails.  The \
       default is deliberately loose: shared CI runners jitter, and the \
       gate exists to catch the representation going accidentally \
       quadratic, not 2x noise."
    in
    Arg.(value & opt float 400.0 & info [ "tolerance" ] ~doc)
  in
  let run_bench ~seed ~ns ~repeats ~json ~check ~tolerance =
    (* A bad baseline fails before the minutes of timing, not after. *)
    let baseline =
      Option.map (fun path -> or_die (Report.read Report.codec path)) check
    in
    let now_ns () = Mclock.now () in
    let ms = Experiments.E25_scale.measure ~now_ns ~seed ~ns ~repeats () in
    Experiments.E25_scale.print_measurements ms;
    let report = Report.make ~seed:0 (Experiments.E25_scale.subjects_of ms) in
    Option.iter (fun path -> save_to Report.codec path report) json;
    let all_ok = List.for_all (fun m -> m.Experiments.E25_scale.m_ok) ms in
    if not all_ok then
      Printf.printf "scale: a probe FAILED its correctness gate while timed\n";
    let check_passed =
      match baseline with
      | None -> true
      | Some baseline ->
        let result =
          Report.check ~tolerance_pct:tolerance ~baseline ~current:report
        in
        Report.print_check result;
        Report.check_ok result
    in
    exit_code (all_ok && check_passed)
  in
  let run_grid ~seed ~trials ~jobs ~ns ~json =
    let table, cells =
      Experiments.E25_scale.run_detailed ~seed ?trials ?jobs ~ns ()
    in
    finish_grid ~json table (fun () -> Experiments.E25_scale.to_json cells)
  in
  let run seed trials jobs ns json bench repeats check tolerance =
    if ns = [] then usage_error "--ns needs at least one size"
    else if bench then run_bench ~seed ~ns ~repeats ~json ~check ~tolerance
    else run_grid ~seed ~trials ~jobs ~ns ~json
  in
  Cmd.v
    (Cmd.info "scale"
       ~doc:
         "Run the E25 large-n scaling grid on the wide Pset — one-round \
          k-set agreement, heartbeat convergence and Chandra-Toueg \
          consensus at sizes far beyond the one-word 62-process cap — as \
          a deterministic correctness campaign (--json artifact, \
          -j-independent) or a throughput measurement gated against a \
          saved baseline (--bench --check).")
    Term.(
      const run $ seed_arg $ trials_arg $ jobs_arg $ ns_arg $ json_arg
      $ bench_arg $ repeats_arg $ check_arg $ tolerance_arg)

(* `byz` — the E24 Byzantine accountability battery: a single forked
   execution with its audit transcript, the soundness fuzzer, the
   proof-grade exhaustive enumeration, and e24-byz artifact save/replay.
   The full grid is `run E24`. *)
let byz_cmd =
  let module Acc = Msgnet.Accountability in
  let module Byz = Check.Byz_check in
  let byz_arg =
    int_arg "byz" ~doc:"Byzantine member count (processes 0..byz-1)." 2
  in
  let forge_arg =
    Arg.(
      value & flag
      & info [ "forge" ]
          ~doc:"Let fuzzed members fabricate phantom-quorum certificates.")
  in
  let fuzz_arg =
    let doc =
      "Fuzz soundness over $(docv) random lying plans: the audit must \
       never accuse an honest process, and every fork must convict \
       ≥ f+1."
    in
    int_opt_arg "fuzz" ~lo:1 ~docv:"TRIALS" ~doc ()
  in
  let exhaustive_arg =
    let doc =
      "Enumerate the entire per-receiver vote-strategy space (16² = 256 \
       combinations at the n=4 defaults) under --exhaustive-seeds delay \
       schedules each: a finite completeness proof, not a sample."
    in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let seeds_arg =
    int_arg "exhaustive-seeds" ~lo:1 ~docv:"K"
      ~doc:"Delay schedules per enumerated strategy combination." 3
  in
  let save_arg =
    save_arg ~prefix:"BYZ"
      "Save the witness and its expected outcome as a replayable e24-byz \
       JSON artifact at $(docv): the single-fork demo's, or with --fuzz \
       the first violation's (nothing is written when there is none)."
  in
  let replay_arg =
    replay_arg
      "Replay an e24-byz artifact and verify the pinned fork flag and \
       accused set reproduce (exit 0 iff they do)."
  in
  let pp_verdict ppf = function
    | Acc.Accountable -> Format.fprintf ppf "accountable"
    | Acc.Unsound honest ->
      Format.fprintf ppf "UNSOUND (honest %s accused)"
        (Rrfd.Pset.to_string honest)
    | Acc.Incomplete { accused; needed } ->
      Format.fprintf ppf "INCOMPLETE (%d accused, %d needed)"
        (Rrfd.Pset.cardinal accused) needed
  in
  let print_outcome ~f (o : Acc.outcome) =
    Array.iteri
      (fun i d ->
        match d with
        | None -> Printf.printf "  p%d: no decision\n" i
        | Some (v, q) ->
          Printf.printf "  p%d: decided %d on quorum %s\n" i v
            (Rrfd.Pset.to_string q))
      o.Acc.decisions;
    (match o.Acc.fork with
    | None -> Printf.printf "  no fork among honest deciders\n"
    | Some (p, q) ->
      Printf.printf "  FORK: honest p%d and p%d decided differently\n" p q);
    Printf.printf "  audit over %d signed sends (%d tampered):\n"
      (List.length o.Acc.log) o.Acc.messages_tampered;
    List.iter
      (fun a -> Format.printf "    %a@." Acc.pp_accusation a)
      o.Acc.accusations;
    Format.printf "  verdict: %a@." pp_verdict (Acc.check ~f o)
  in
  let run_demo ~seed ~n ~f ~byz ~forge ~save =
    (* Walk derived seeds until the split-brain plan actually forks —
       deterministic in --seed, and each attempt is a legitimate
       execution of the same lying strategy under a fresh schedule. *)
    let inputs = Byz.binary_inputs n in
    let strategies = Array.make n None in
    for i = 0 to byz - 1 do
      let cert =
        if forge then Some (0, Rrfd.Pset.of_list (List.init (n - f) Fun.id))
        else None
      in
      strategies.(i) <- Some { Acc.votes = Array.copy inputs; cert }
    done;
    let witness_at k =
      { Byz.n; f; seed = Dsim.Rng.derive_seed seed k; inputs; strategies }
    in
    let attempts = 200 in
    let rec hunt k =
      if k >= attempts then None
      else
        let w = witness_at k in
        if Byz.forks w then Some (k, w) else hunt (k + 1)
    in
    Printf.printf
      "byz: split-brain plan, n=%d f=%d byz=%d%s (every member echoes \
       each receiver's own input)\n"
      n f byz
      (if forge then " + forged certs" else "");
    match hunt 0 with
    | None ->
      Printf.printf
        "  no fork in %d delay schedules — below the n/3 threshold this \
         is the theorem, above it try another --seed\n"
        attempts;
      if 3 * byz > n then 1 else 0
    | Some (k, w) ->
      let outcome = Byz.run_witness w in
      Printf.printf "  fork found at schedule %d (seed %d):\n" k w.Byz.seed;
      print_outcome ~f outcome;
      Option.iter
        (fun path ->
          save_to ~indent:"  " ~pretty:true Byz.codec path
            (Byz.of_outcome w outcome))
        save;
      exit_code (Acc.check ~f outcome = Acc.Accountable)
  in
  let run_fuzz ~seed ~jobs ~n ~f ~byz ~forge ~trials ~save =
    let r = Byz.fuzz ?jobs ~n ~f ~byz ~forge ~seed ~trials () in
    Printf.printf
      "byz fuzz: %d trials (n=%d f=%d byz=%d%s) — %d forked, %d sends \
       tampered, %d violations\n"
      r.Byz.trials n f byz
      (if forge then " forge" else "")
      r.Byz.forked r.Byz.tampered r.Byz.violations;
    (match r.Byz.first_violation with
    | None -> ()
    | Some (idx, w, v) ->
      Format.printf "  first violation at trial %d (witness seed %d): %a@." idx
        w.Byz.seed pp_verdict v;
      Option.iter
        (fun path ->
          save_to ~indent:"  " ~pretty:true Byz.codec path
            (Byz.of_outcome w (Byz.run_witness w)))
        save);
    exit_code (r.Byz.violations = 0)
  in
  let run_exhaustive ~seed ~jobs ~seeds ~n ~f ~byz =
    let r = Byz.exhaustive ?jobs ~seeds ~n ~f ~byz ~seed () in
    Printf.printf
      "byz exhaustive: %d strategy combinations × %d schedules = %d runs \
       (n=%d f=%d byz=%d)\n"
      r.Byz.combos seeds r.Byz.runs n f byz;
    Printf.printf "  forked: %d   min accused on fork: %s   violations: %d\n"
      r.Byz.forked
      (match r.Byz.min_accused_on_fork with
      | None -> "-"
      | Some m -> string_of_int m)
      r.Byz.violations;
    let complete =
      r.Byz.violations = 0 && r.Byz.forked > 0
      && match r.Byz.min_accused_on_fork with
         | Some m -> m >= f + 1
         | None -> false
    in
    Printf.printf
      (if complete then
         "  completeness proved: every fork in the space convicts ≥ f+1 = \
          %d, soundly\n"
       else "  completeness NOT established (f+1 = %d)\n")
      (f + 1);
    exit_code complete
  in
  let run_replay path =
    let artifact = or_die (Report.read Byz.codec path) in
    let r = Byz.replay artifact in
    Printf.printf "byz replay: %s\n" path;
    print_outcome ~f:artifact.Byz.witness.Byz.f r.Byz.outcome;
    Printf.printf "  fork %s, accused set %s\n"
      (if r.Byz.fork_match then "reproduced" else "DIVERGED")
      (if r.Byz.accused_match then "reproduced" else "DIVERGED");
    exit_code (Byz.reproduced r)
  in
  let run seed jobs n f byz forge fuzz exhaustive seeds save replay =
    let f = in_range "f" ~lo:0 ~hi:(n - 1) f in
    let byz = in_range "byz" ~lo:0 ~hi:n byz in
    match replay with
    | Some path -> run_replay path
    | None ->
      if exhaustive then run_exhaustive ~seed ~jobs ~seeds ~n ~f ~byz
      else
        match fuzz with
        | Some trials -> run_fuzz ~seed ~jobs ~n ~f ~byz ~forge ~trials ~save
        | None -> run_demo ~seed ~n ~f ~byz ~forge ~save
  in
  Cmd.v
    (Cmd.info "byz"
       ~doc:
         "Byzantine round-machines with fork accountability (E24): fork \
          the accountable quorum vote with equivocating members, replay \
          the signed send log into ≥ f+1 convictions, fuzz the audit's \
          soundness, prove its completeness exhaustively, and save or \
          replay e24-byz witnesses (the full grid is `run E24`).")
    Term.(
      const run $ seed_arg $ jobs_arg $ n_arg 4
      $ int_arg "f" ~doc:"Audit resilience bound." 1
      $ byz_arg $ forge_arg $ fuzz_arg $ exhaustive_arg $ seeds_arg $ save_arg
      $ replay_arg)

let derive_cmd =
  let module Derive = Check.Derive in
  let policy_arg =
    let doc =
      "Adversary policy to characterise, atoms joined with '+': "
      ^ Check.Spec.adversary_names ^ "."
    in
    Arg.(
      value & opt string "drop:p=20" & info [ "policy" ] ~docv:"SPEC" ~doc)
  in
  let fuzz_arg =
    let doc =
      "Certification trials: fresh executions, sharded through \
       Campaign.search, that must all satisfy the derived predicate \
       (the upward certificate; the verdict is identical at every -j)."
    in
    int_arg "fuzz" ~lo:1 ~docv:"TRIALS" ~doc 10_000
  in
  let exhaustive_arg =
    let doc =
      "Prove tightness by enumeration: for each frontier member, search \
       the $(i,whole) space of derived-predicate histories for a \
       separating one (requires n ≤ 4; the space is ((2^n-1)^n)^rounds)."
    in
    Arg.(value & flag & info [ "exhaustive" ] ~doc)
  in
  let save_arg =
    save_arg ~prefix:"DERIVE"
      "Save the derivation — policy, derived predicate, every witness and \
       separation — as a replayable e26-derive artifact."
  in
  let replay_arg =
    replay_arg
      "Replay a saved e26-derive artifact: re-check every witness pair, \
       re-run each fuzz witness's (seed, trial) execution and each \
       separation's enumeration, and demand bit-identical histories."
  in
  let run_replay path =
    let outcome = or_die (Report.read Derive.codec path) in
    let r = or_die (Derive.replay outcome) in
    Printf.printf "derive replay: %s (policy %s)\n" path
      outcome.Derive.policy;
    Printf.printf "  derived: %s\n"
      (String.concat " ∧ " outcome.Derive.conjuncts);
    Printf.printf "  witness pairs: %s\n"
      (if r.Derive.witnesses_valid then "valid" else "INVALID");
    Printf.printf "  fuzz witnesses: %s\n"
      (if r.Derive.fuzz_reproduced then "reproduced bit-for-bit"
       else "DIVERGED");
    Printf.printf "  separations: %s\n"
      (if r.Derive.separations_valid then "re-proved by enumeration"
       else "DIVERGED");
    exit_code (Derive.reproduced r)
  in
  let run_single ~seed ~trials ~jobs ~policy ~n ~f ~rounds ~fuzz ~exhaustive
      ~save =
    let cfg =
      {
        Derive.n;
        f;
        rounds;
        observe_trials = Option.value trials ~default:2000;
        certify_trials = fuzz;
        exhaustive;
        seed;
        jobs;
      }
    in
    let outcome = or_die (Derive.derive ~cfg ~policy ()) in
    Format.printf "%a@." Derive.pp outcome;
    Option.iter (fun path -> save_to Derive.codec path outcome) save;
    exit_code (Derive.ok outcome)
  in
  let run seed trials jobs policy (n, f) rounds fuzz exhaustive save replay =
    match replay with
    | Some path -> run_replay path
    | None ->
      run_single ~seed ~trials ~jobs ~policy ~n ~f ~rounds ~fuzz ~exhaustive
        ~save
  in
  Cmd.v
    (Cmd.info "derive"
       ~doc:
         "Derive the strongest heard-of predicate an adversary policy's \
          executions satisfy (E26), certified two-sidedly: a fresh fuzz \
          campaign proves it sound, a violating execution per stronger \
          candidate proves it tight (at small n by exhaustive \
          enumeration), with replayable e26-derive artifacts (the full grid \
          is `run E26`).")
    Term.(
      const run $ seed_arg $ trials_arg $ jobs_arg $ policy_arg
      $ n_minority_f_arg 5
      $ rounds_arg ~doc:"Simulated rounds." 4
      $ fuzz_arg $ exhaustive_arg $ save_arg $ replay_arg)

let main =
  let doc =
    "Reproduce the results of Gafni's 'Round-by-Round Fault Detectors' \
     (PODC 1998)."
  in
  Cmd.group
    (Cmd.info "rrfd-experiments" ~version:"1.0.0" ~doc)
    [ list_cmd; run_cmd; all_cmd; lattice_cmd; trace_cmd; check_cmd;
      faultnet_cmd; live_cmd; scale_cmd; byz_cmd; derive_cmd ]

let () = exit (Cmd.eval' main)
