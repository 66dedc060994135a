(* The protocol catalog and its derivations: every entry round-trips
   through the model checker's SUT layer (names, horizons, properties and
   one clean fuzz run each), and the heard-of extraction honours its
   contract — completed prefixes survive [to_history] exactly and the
   induced history never self-suspects. *)

module Catalog = Protocols.Catalog
module H = Rrfd.Fault_history
module Pset = Rrfd.Pset

let ok_spec = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let catalog_well_formed () =
  let names = Catalog.names in
  Alcotest.(check int) "unique names" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun proto ->
      let name = Catalog.name proto in
      (match Catalog.find name with
      | Some found ->
        Alcotest.(check string) (name ^ " find round-trip") name
          (Catalog.name found)
      | None -> Alcotest.failf "%s not found by its own name" name);
      let n = Catalog.default_n proto in
      let f = Catalog.default_f proto ~n in
      Alcotest.(check bool)
        (name ^ " horizon positive")
        true
        (Catalog.horizon proto ~n ~f >= 1);
      Alcotest.(check bool)
        (name ^ " resilience sane")
        true
        (f >= 0 && f < n))
    Catalog.all;
  Alcotest.(check bool) "unknown name" true (Catalog.find "no-such" = None)

(* Every catalog entry is reachable through the checker's spec grammar and
   derives a SUT whose name and horizon agree with the catalog's. *)
let sut_derivation () =
  List.iter
    (fun proto ->
      let name = Catalog.name proto in
      let sut = ok_spec (Check.Spec.sut name) in
      Alcotest.(check string) (name ^ " SUT name") name (Check.Sut.name sut);
      let n = Catalog.default_n proto in
      let f = Catalog.default_f proto ~n in
      Alcotest.(check int)
        (name ^ " SUT rounds = catalog horizon")
        (Catalog.horizon proto ~n ~f)
        (Check.Sut.rounds sut);
      let props = Check.Spec.default_properties sut in
      Alcotest.(check bool) (name ^ " has default properties") true
        (props <> []);
      List.iter (fun p -> ignore (ok_spec (Check.Spec.property p))) props)
    Catalog.all

(* Catalog invariants: names are unique, every entry declares its fault
   models from the known vocabulary, Byzantine capability is an explicit
   declaration (not a default), and every entry actually executes one
   tiny-n round on every substrate that supports it. *)
(* The fault-model vocabulary: a new fault class has to be added here
   deliberately rather than by typo. *)
let known_faults = [ "crash"; "omission"; "byzantine" ]

let catalog_invariants () =
  let names = Catalog.names in
  Alcotest.(check int)
    "catalog names are unique"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun proto ->
      let name = Catalog.name proto in
      let faults = proto.Catalog.faults in
      Alcotest.(check bool)
        (name ^ ": declares at least one fault model")
        true (faults <> []);
      List.iter
        (fun fm ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S is known vocabulary" name fm)
            true
            (List.mem fm known_faults))
        faults;
      Alcotest.(check int)
        (name ^ ": fault models are not repeated")
        (List.length faults)
        (List.length (List.sort_uniq compare faults)))
    Catalog.all;
  (* Byzantine capability is opt-in and byz-vote opts in: it is the
     accountability construction's protocol, built to survive lying
     members. *)
  let byz_capable =
    List.filter
      (fun p -> List.mem "byzantine" p.Catalog.faults)
      Catalog.all
  in
  Alcotest.(check (list string))
    "exactly the Byzantine-capable entries" [ "byz-vote" ]
    (List.map Catalog.name byz_capable);
  Alcotest.(check bool)
    "byz-vote still handles crashes" true
    (List.mem "crash" (Catalog.find_exn "byz-vote").Catalog.faults);
  (* One round per substrate per entry, at the entry's own tiny default
     size.  The execution record must be structurally sane everywhere;
     decisions are substrate business, not this test's. *)
  List.iter
    (fun proto ->
      let name = Catalog.name proto in
      let n = Catalog.default_n proto in
      let f = Catalog.default_f proto ~n in
      let quiet =
        Rrfd.Detector.of_schedule ~after:(Array.make n Rrfd.Pset.empty) []
      in
      let sane label (ex : int Rrfd.Substrate.execution) =
        Alcotest.(check int)
          (Printf.sprintf "%s/%s: one decision slot per process" name label)
          n
          (Array.length ex.Rrfd.Substrate.decisions);
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: induced history sized to the run" name label)
          true
          (Rrfd.Fault_history.n ex.Rrfd.Substrate.induced = n
          && Rrfd.Fault_history.rounds ex.Rrfd.Substrate.induced
             = ex.Rrfd.Substrate.rounds_used);
        Alcotest.(check string)
          (Printf.sprintf "%s/%s: substrate name" name label)
          label ex.Rrfd.Substrate.substrate;
        Alcotest.(check int)
          (Printf.sprintf "%s/%s: one completed count per process" name label)
          n
          (Array.length ex.Rrfd.Substrate.completed);
        Alcotest.(check bool)
          (Printf.sprintf "%s/%s: wall clock only on live" name label)
          (label = "live")
          (Option.is_some ex.Rrfd.Substrate.wall_ns);
        if label = "engine" || label = "live" then
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s: nobody crashed" name label)
            true
            (Rrfd.Pset.is_empty ex.Rrfd.Substrate.crashed)
      in
      sane "engine"
        (Catalog.run_engine proto ~max_rounds:1 ~n ~f ~detector:quiet ());
      sane "sync"
        (Catalog.run_sync proto ~rounds:1 ~n ~f
           ~pattern:(Syncnet.Faults.none ~n) ());
      sane "msgnet"
        (Catalog.run_msgnet proto ~rounds:1 ~seed:3 ~n ~f ());
      sane "live" (Catalog.run_live proto ~rounds:1 ~n ~f ()))
    Catalog.all

(* One fuzz run per protocol: under a predicate the protocol is safe for,
   a short Monte-Carlo search must come back clean.  Safety-only for the
   protocols whose liveness needs more than the fuzzed horizon. *)
let fuzz_each_protocol () =
  let safe_configs =
    [
      ("kset-one-round", "kset:k=2", [ "k-agreement:k=2"; "termination" ]);
      ("consensus", "kset:k=1", [ "agreement"; "validity"; "termination" ]);
      ("kset-snapshot", "kset:k=2", [ "k-agreement:k=2"; "termination" ]);
      ("adopt-commit", "true", [ "adopt-commit" ]);
      ("phased-consensus", "true", [ "agreement"; "validity" ]);
      ("early-deciding", "crash:f=1", [ "agreement"; "validity" ]);
      ("flood-consensus", "crash:f=1", [ "agreement"; "validity" ]);
      ("byz-vote", "true", [ "agreement"; "validity" ]);
    ]
  in
  Alcotest.(check (list string))
    "every protocol has a fuzz configuration" (Catalog.names)
    (List.map (fun (name, _, _) -> name) safe_configs);
  List.iter
    (fun (name, predicate, properties) ->
      let proto = Catalog.find_exn name in
      let sut = Check.Sut.of_protocol proto in
      let config : Check.Checker.fuzz_config =
        {
          n = Catalog.default_n proto;
          rounds = Check.Sut.rounds sut;
          trials = 40;
          seed = 11;
          jobs = Some 1;
          attempts = 64;
        }
      in
      match
        Check.Checker.fuzz config ~sut
          ~predicate:(ok_spec (Check.Spec.predicate predicate))
          ~properties:
            (List.map (fun p -> ok_spec (Check.Spec.property p)) properties)
          ()
      with
      | None -> ()
      | Some ce ->
        Alcotest.failf "%s violated under %s: %s" name predicate
          (H.to_string_compact ce.Check.Checker.history))
    safe_configs

(* Heard-of extraction on arbitrary well-formed records: [to_history]
   reproduces every noted round exactly (D(i,r) = complement of the heard
   set), pads unreached rounds with ∅, reports the right completed counts,
   and — since a process always hears itself — never self-suspects. *)
let heard_of_roundtrip =
  QCheck.Test.make
    ~name:"heard-of extraction preserves the completed prefix"
    ~count:200
    (Test_support.sized_seed ~min_n:2 ~max_n:7 ())
    (fun (n, seed) ->
      let rng = Test_support.rng_of seed in
      let max_rounds = 4 in
      let ho = Msgnet.Heard_of.create ~n in
      let completed =
        Array.init n (fun _ -> Dsim.Rng.int rng (max_rounds + 1))
      in
      let heards = Array.make_matrix n max_rounds Pset.empty in
      for i = 0 to n - 1 do
        for round = 1 to completed.(i) do
          let heard = Pset.add i (Pset.random_subset rng (Pset.full n)) in
          heards.(i).(round - 1) <- heard;
          Msgnet.Heard_of.note ho i ~round ~heard ()
        done
      done;
      let hist = Msgnet.Heard_of.to_history ho in
      let horizon = Array.fold_left max 0 completed in
      if H.rounds hist <> horizon then
        QCheck.Test.fail_reportf "history has %d rounds, expected %d"
          (H.rounds hist) horizon;
      if Msgnet.Heard_of.rounds ho <> horizon then
        QCheck.Test.fail_reportf "record reports %d rounds, expected %d"
          (Msgnet.Heard_of.rounds ho) horizon;
      for i = 0 to n - 1 do
        if Msgnet.Heard_of.completed ho i <> completed.(i) then
          QCheck.Test.fail_reportf "p%d completed %d, recorded %d" i
            completed.(i)
            (Msgnet.Heard_of.completed ho i);
        for round = 1 to horizon do
          let d = H.d hist ~proc:i ~round in
          let expected =
            if round <= completed.(i) then
              Pset.diff (Pset.full n) heards.(i).(round - 1)
            else Pset.empty
          in
          if not (Pset.equal d expected) then
            QCheck.Test.fail_reportf
              "p%d round %d: D = %s, expected %s" i round (Pset.to_string d)
              (Pset.to_string expected);
          if Pset.mem i d then
            QCheck.Test.fail_reportf "p%d ∈ D(p%d,%d)" i i round
        done
      done;
      true)

(* The one comparable rule ({!Rrfd.Substrate.comparable}: the process
   completed every round of the induced history) against the
   per-substrate rules it replaced, kept here as the model: the engine
   compares everyone, the synchronous network its non-crashed processes,
   the asynchronous layer those that completed the full extracted prefix,
   the live substrate everyone.  Run over E22's protocol × substrate ×
   policy cells plus one live run per protocol; in each execution,
   flipping a comparable replayed decision must break the verdict and
   flipping a non-comparable one must not. *)
let per_substrate_rule (ex : int Rrfd.Substrate.execution) i =
  match ex.Rrfd.Substrate.substrate with
  | "engine" | "live" -> true
  | "sync" -> not (Pset.mem i ex.Rrfd.Substrate.crashed)
  | _ -> ex.Rrfd.Substrate.completed.(i) = H.rounds ex.Rrfd.Substrate.induced

let comparable_rule_is_the_per_substrate_rules () =
  let module E22 = Experiments.E22_xsub in
  let skipped = Hashtbl.create 4 in
  let judge ~where proto (ex : int Rrfd.Substrate.execution) =
    let procs = List.init E22.n Fun.id in
    let select rule = List.filter (rule ex) procs in
    if select per_substrate_rule <> select Rrfd.Substrate.comparable then
      Alcotest.failf "%s: comparable set differs from the per-substrate rule"
        where;
    let replayed =
      (Catalog.replay proto ~f:E22.f ~history:ex.Rrfd.Substrate.induced ())
        .Rrfd.Substrate.decisions
    in
    if not (Rrfd.Substrate.agrees ~equal:Int.equal ex ~replayed) then
      Alcotest.failf "%s: replay disagrees" where;
    List.iter
      (fun i ->
        let comparable = Rrfd.Substrate.comparable ex i in
        if not comparable then
          Hashtbl.replace skipped ex.Rrfd.Substrate.substrate ();
        let flipped = Array.copy replayed in
        flipped.(i) <-
          (match flipped.(i) with Some v -> Some (v + 1) | None -> Some 0);
        if Rrfd.Substrate.agrees ~equal:Int.equal ex ~replayed:flipped = comparable then
          Alcotest.failf "%s: flipping p%d (comparable %b) left the verdict %b"
            where i comparable comparable)
      procs
  in
  List.iteri
    (fun pi proto ->
      List.iteri
        (fun ci policy ->
          for trial = 0 to 5 do
            let rng = Dsim.Rng.derive ~seed:22 ~stream:((((pi * 3) + ci) * 8) + trial) in
            List.iter
              (fun ex ->
                judge proto ex
                  ~where:
                    (Printf.sprintf "%s/%s/%s trial %d" (Catalog.name proto)
                       ex.Rrfd.Substrate.substrate policy trial))
              (E22.executions proto ~policy ~rng)
          done)
        E22.policies;
      judge proto
        (Catalog.run_live proto ~n:E22.n ~f:E22.f ())
        ~where:(Catalog.name proto ^ "/live"))
    Catalog.all;
  Alcotest.(check (list string))
    "some crashed or lagging process was left out on sync and msgnet"
    [ "msgnet"; "sync" ]
    (List.sort compare (List.of_seq (Hashtbl.to_seq_keys skipped)))

let tests =
  [
    Alcotest.test_case "catalog well-formed" `Quick catalog_well_formed;
    Alcotest.test_case "catalog invariants: names, fault models, substrates"
      `Slow catalog_invariants;
    Alcotest.test_case "SUT derivation agrees with catalog" `Quick
      sut_derivation;
    Alcotest.test_case "one clean fuzz run per protocol" `Slow
      fuzz_each_protocol;
    QCheck_alcotest.to_alcotest heard_of_roundtrip;
    Alcotest.test_case "one comparable rule = the per-substrate rules" `Quick
      comparable_rule_is_the_per_substrate_rules;
  ]
