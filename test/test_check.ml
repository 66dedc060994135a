(* The lib/check model checker: generator soundness, shrinking,
   deterministic parallel search, artifact round-trips, and the seeded
   end-to-end find → shrink → replay pipeline the CLI exposes. *)

module H = Rrfd.Fault_history

let ok_spec = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let kset3 = ok_spec (Check.Spec.predicate "kset:k=3")
let kset2 = ok_spec (Check.Spec.predicate "kset:k=2")
let k_agreement2 = ok_spec (Check.Spec.property "k-agreement:k=2")

(* Gen --------------------------------------------------------------- *)

let gen_round_never_full =
  QCheck.Test.make ~name:"Gen.round_sets never outputs D = S" ~count:500
    (Test_support.sized_seed ~max_n:8 ())
    (fun (n, seed) ->
      let sets = Check.Gen.round_sets (Test_support.rng_of seed) ~n in
      Array.for_all
        (fun s -> not (Rrfd.Pset.equal s (Rrfd.Pset.full n)))
        sets)

let gen_respects_predicate =
  QCheck.Test.make ~name:"Gen.history satisfies its predicate" ~count:300
    (Test_support.sized_seed ~min_n:3 ~max_n:6 ())
    (fun (n, seed) ->
      let p = Rrfd.Predicate.async_resilient ~f:2 in
      match
        Check.Gen.history (Test_support.rng_of seed) ~n ~rounds:2 ~satisfying:p
      with
      | None -> true
      | Some h ->
        H.rounds h = 2 && H.n h = n && Rrfd.Predicate.holds p h)

(* Deterministic parallel search ------------------------------------- *)

let pool_search_first_hit () =
  let f i = if i > 10 && i mod 7 = 3 then Some (i * i) else None in
  let expect = Some 289 (* i = 17, the lowest qualifying index *) in
  List.iter
    (fun jobs ->
      Alcotest.(check (option int))
        (Printf.sprintf "first hit at -j %d" jobs)
        expect
        (Runtime.Pool.search ~jobs ~n:100 f))
    [ 1; 2; 4; 8 ];
  Alcotest.(check (option int)) "no hit" None
    (Runtime.Pool.search ~jobs:4 ~n:10 f)

let campaign_search_j_invariant =
  QCheck.Test.make ~name:"Campaign.search is -j invariant" ~count:30
    QCheck.(int_bound 100000)
    (fun seed ->
      let f ~trial ~rng =
        let x = Dsim.Rng.int rng 1000 in
        if x < 25 then Some (trial, x) else None
      in
      let serial = Runtime.Campaign.search ~jobs:1 ~seed ~trials:200 f in
      List.for_all
        (fun jobs ->
          Runtime.Campaign.search ~jobs ~seed ~trials:200 f = serial)
        [ 2; 4; 8 ])

(* Shrinking --------------------------------------------------------- *)

(* The suites draw sizes with [Test_support.int_range]: a shrunk
   counterexample must stay inside the range the property was drawn
   from, so no shrink candidate of an in-range value may leave it. *)
let int_range_shrinks_in_range =
  QCheck.Test.make ~name:"Test_support.int_range shrinks inside [lo, hi]"
    ~count:500
    QCheck.(triple (Test_support.int_range (-100) 100) small_nat small_nat)
    (fun (lo, span, off) ->
      let hi = lo + span in
      let x = lo + (off mod (span + 1)) in
      match (Test_support.int_range lo hi).QCheck.shrink with
      | None -> false
      | Some shrink ->
        let inside = ref true in
        shrink x (fun y -> if y < lo || y > hi then inside := false);
        !inside)

let shrink_candidates_well_formed =
  QCheck.Test.make ~name:"Shrink.candidates never propose D = S" ~count:300
    (Test_support.history_arb ~max_n:5 ())
    (fun h ->
      List.for_all
        (fun c ->
          let n = H.n c in
          let full = Rrfd.Pset.full n in
          let ok = ref true in
          for r = 1 to H.rounds c do
            Array.iter
              (fun s -> if Rrfd.Pset.equal s full then ok := false)
              (H.round_sets c ~round:r)
          done;
          !ok)
        (Check.Shrink.candidates h))

let shrink_strictly_smaller =
  QCheck.Test.make ~name:"Shrink.candidates strictly shrink" ~count:300
    (Test_support.history_arb ~max_n:5 ())
    (fun h ->
      let weight h =
        let total = ref (H.n h + H.rounds h) in
        for r = 1 to H.rounds h do
          Array.iter
            (fun s -> total := !total + Rrfd.Pset.cardinal s)
            (H.round_sets h ~round:r)
        done;
        !total
      in
      let w = weight h in
      List.for_all (fun c -> weight c < w) (Check.Shrink.candidates h))

(* End-to-end: the acceptance-criteria scenario ---------------------- *)

let sut name = Check.Sut.of_protocol (Protocols.Catalog.find_exn name)

let kset_one_round = sut "kset-one-round"

let adopt_commit = sut "adopt-commit"

let fuzz_config : Check.Checker.fuzz_config =
  { n = 4; rounds = 1; trials = 500; seed = 7; jobs = Some 2; attempts = 64 }

let seeded_violation () =
  match
    Check.Checker.fuzz fuzz_config ~sut:kset_one_round
      ~predicate:kset3 ~properties:[ k_agreement2 ] ()
  with
  | None -> Alcotest.fail "seeded k-set violation not found"
  | Some ce -> ce

let fuzz_finds_and_shrinks () =
  let ce = seeded_violation () in
  Alcotest.(check int) "shrunk to 3 processes" 3 (H.n ce.Check.Checker.history);
  Alcotest.(check int) "shrunk to 1 round" 1 (H.rounds ce.Check.Checker.history);
  (* 1-minimality: no single shrink step keeps both predicate and failure. *)
  let still_fails h =
    snd
      (Check.Checker.test_history ~sut:kset_one_round
         ~predicate:kset3 ~properties:[ k_agreement2 ] h)
    <> None
  in
  List.iter
    (fun c ->
      if Rrfd.Predicate.holds kset3 c && still_fails c then
        Alcotest.failf "not 1-minimal: %s still fails" (H.to_string_compact c))
    (Check.Shrink.candidates ce.Check.Checker.history)

let exhaustive_agrees_with_fuzz () =
  let ce = seeded_violation () in
  match
    Check.Checker.exhaustive ~jobs:2 ~n:3 ~rounds:1
      ~sut:kset_one_round ~predicate:kset3
      ~properties:[ k_agreement2 ] ()
  with
  | None -> Alcotest.fail "exhaustive search missed the violation"
  | Some exh ->
    Alcotest.(check Test_support.history_t)
      "fuzz and exhaustive shrink to the same minimal history"
      exh.Check.Checker.history ce.Check.Checker.history

let exhaustive_proves_safety () =
  match
    Check.Checker.exhaustive ~n:3 ~rounds:1 ~sut:kset_one_round
      ~predicate:kset2 ~properties:[ k_agreement2 ] ()
  with
  | None -> ()
  | Some ce ->
    Alcotest.failf "k-set(k=2) should be safe, got %s"
      (H.to_string_compact ce.Check.Checker.history)

(* Replay padding: a pinned history shorter than the SUT's horizon gets
   failure-free rounds appended, so the protocol still terminates. *)
let short_history_padded () =
  let obs =
    Check.Sut.run_history adopt_commit ~check:Rrfd.Predicate.always
      (H.empty ~n:2)
  in
  Alcotest.(check int) "padded to the 2-round horizon" 2
    (H.rounds obs.Check.Property.history);
  Array.iter
    (fun d -> Alcotest.(check bool) "everyone decided" true (Option.is_some d))
    obs.Check.Property.decisions

(* Constructive trials are judged on their own run.  The live run goes
   failure-free past the drawn rounds up to the SUT's horizon, so it must
   be exactly the replay of the drawn history, field by field and verdict
   by verdict — below the horizon (padded), above it, and when the
   predicate trips only in the padded tail (crash-closure over a crash
   generator: the prefix is closed, a quiet tail unsuspects). *)
type live_case = {
  sut_spec : string;
  gen_spec : string;
  closure : bool;  (** Check crash-closure instead of the generator's own predicate. *)
  n : int;
  rounds : int;
  seed : int;
}

let live_case_gen =
  let gens =
    [ "async:f=1"; "crash:f=1"; "omission:f=1"; "kset:k=2"; "detector-s"; "antisym:f=1" ]
  in
  QCheck.Gen.(
    let* sut_spec = oneofl Protocols.Catalog.names in
    let* gen_spec = oneofl gens in
    let* closure = bool in
    let* n = int_range 3 5 in
    let horizon = Check.Sut.rounds (ok_spec (Check.Spec.sut sut_spec)) in
    let* rounds = int_range 1 (horizon + 1) in
    let+ seed = int_bound 100000 in
    { sut_spec; gen_spec; closure; n; rounds; seed })

let print_live_case c =
  Printf.sprintf "%s under %s%s, n=%d, rounds=%d, seed=%d" c.sut_spec
    c.gen_spec
    (if c.closure then " checked by crash-closure" else "")
    c.n c.rounds c.seed

let live_trial c =
  let sut = ok_spec (Check.Spec.sut c.sut_spec) in
  let gen, paired = ok_spec (Check.Spec.generator c.gen_spec) in
  let predicate = if c.closure then Rrfd.Predicate.crash_closure else paired in
  let properties =
    List.map (fun s -> ok_spec (Check.Spec.property s))
      (Check.Spec.default_properties sut)
  in
  let drawn, live, verdict =
    Check.Checker.live_trial ~sut ~predicate ~properties ~n:c.n
      ~rounds:c.rounds (gen (Test_support.rng_of c.seed) ~n:c.n)
  in
  let replay, replay_verdict =
    Check.Checker.test_history ~sut ~predicate ~properties drawn
  in
  (drawn, live, verdict, replay, replay_verdict)

let live_trial_is_its_replay =
  QCheck.Test.make ~name:"live trial equals the replay of its drawn history"
    ~count:400
    (QCheck.make live_case_gen ~print:print_live_case)
    (fun c ->
      let drawn, live, verdict, replay, replay_verdict = live_trial c in
      let field name ok =
        if not ok then QCheck.Test.fail_reportf "mismatch in %s" name
      in
      let open Check.Property in
      field "n" (live.n = replay.n);
      field "inputs" (live.inputs = replay.inputs);
      field "decisions" (live.decisions = replay.decisions);
      field "decision_rounds" (live.decision_rounds = replay.decision_rounds);
      field "rounds_used" (live.rounds_used = replay.rounds_used);
      field "history" (H.equal live.history replay.history);
      field "violation" (live.violation = replay.violation);
      let name = Option.map (fun (p, msg) -> (Check.Property.name p, msg)) in
      field "verdict" (name verdict = name replay_verdict);
      (* The candidate is the drawn prefix, never the padded tail. *)
      field "candidate length"
        (H.rounds drawn = min c.rounds (H.rounds live.history));
      true)

(* The grid above is not vacuous: it pads runs below the horizon and
   trips the predicate inside the padded tail. *)
let live_trial_grid_covers_the_tail () =
  let padded = ref 0 and tail_trips = ref 0 in
  for seed = 0 to 199 do
    let c =
      { sut_spec = "adopt-commit"; gen_spec = "crash:f=1"; closure = true;
        n = 4; rounds = 1; seed }
    in
    let drawn, live, _, _, _ = live_trial c in
    if H.rounds live.Check.Property.history > H.rounds drawn then incr padded;
    if live.Check.Property.violation <> None
       && live.Check.Property.rounds_used > c.rounds
    then incr tail_trips
  done;
  Alcotest.(check bool) "some runs are padded" true (!padded > 0);
  Alcotest.(check bool) "some predicates trip in the tail" true (!tail_trips > 0)

(* Sharded enumeration: the union of the per-first-round shards the
   exhaustive checker hands to its domains must be exactly the serial
   fold's set — same count, same multiset of histories. *)
let shards_cover_the_fold () =
  let n = 3 and rounds = 2 in
  List.iter
    (fun (name, p) ->
      let collect fold = fold ~init:[] ~f:(fun acc h -> H.to_string_compact h :: acc) in
      let serial =
        collect (fun ~init ~f ->
            Adversary.Enumerate.fold ~n ~rounds ~satisfying:p ~init ~f)
      in
      let sharded =
        List.concat_map
          (fun d ->
            collect (fun ~init ~f ->
                Adversary.Enumerate.fold_extensions
                  ~prefix:(H.append (H.empty ~n) d)
                  ~rounds ~satisfying:p ~init ~f))
          (Rrfd.Submodel.round_assignments ~n)
      in
      Alcotest.(check int)
        (name ^ ": shard union has the serial count")
        (List.length serial) (List.length sharded);
      let digest l = Digest.string (String.concat "\n" (List.sort compare l)) in
      Alcotest.(check string)
        (name ^ ": shard union is the serial set")
        (Digest.to_hex (digest serial))
        (Digest.to_hex (digest sharded)))
    [
      ("omission:f=1", Rrfd.Predicate.omission ~f:1);
      ("async:f=1", Rrfd.Predicate.async_resilient ~f:1);
      ("crash-closure", Rrfd.Predicate.crash_closure);
    ]

(* Artifact ---------------------------------------------------------- *)

let artifact_roundtrip_and_replay () =
  let ce = seeded_violation () in
  let artifact =
    Check.Artifact.make ~sut_spec:"kset-one-round" ~predicate_spec:"kset:k=3"
      ~property_specs:[ "k-agreement:k=2" ] ~seed:fuzz_config.Check.Checker.seed
      ce
  in
  let reread =
    Test_support.ok_exn
      (Report.Codec.of_string Check.Artifact.codec
         (Report.Codec.to_string ~pretty:true Check.Artifact.codec artifact))
  in
  Alcotest.(check Test_support.history_t)
    "history survives the JSON round-trip"
    ce.Check.Checker.history
    reread.Check.Artifact.counterexample.Check.Checker.history;
  Alcotest.(check string) "failure text survives" ce.Check.Checker.failure
    reread.Check.Artifact.counterexample.Check.Checker.failure;
  match Check.Artifact.replay reread with
  | Error e -> Alcotest.failf "replay refused: %s" e
  | Ok r ->
    Alcotest.(check bool) "replay reproduces the decision vector" true
      (Check.Artifact.reproduced r)

(* The stock properties decide with a scan and build their report only
   on failure; each must give exactly the report-based verdict and
   message, including the rejection of a length mismatch. *)
let properties_match_report_oracle =
  let module O = Test_support.Oracle.Property in
  let verdict f o = try Ok (f o) with Invalid_argument m -> Error m in
  QCheck.Test.make ~name:"scan-first properties equal their report-based forms"
    ~count:2000
    QCheck.(pair (Test_support.int_range 1 9) (int_bound 1_000_000))
    (fun (n, seed) ->
      let rng = Dsim.Rng.create seed in
      let inputs = Array.init n (fun _ -> Dsim.Rng.int rng 6) in
      (* Now and then one slot too many or too few. *)
      let len = match Dsim.Rng.int rng 20 with 0 -> n + 1 | 1 -> n - 1 | _ -> n in
      let decisions =
        Array.init len (fun _ ->
            if Dsim.Rng.int rng 4 = 0 then None else Some (Dsim.Rng.int rng 8))
      in
      let o =
        {
          Check.Property.n;
          inputs;
          decisions;
          decision_rounds = Array.map (Option.map (fun _ -> 1)) decisions;
          rounds_used = Dsim.Rng.int rng 5;
          history = Rrfd.Fault_history.empty ~n;
          violation = None;
        }
      in
      let same what lean oracle =
        if verdict (Check.Property.check lean) o <> verdict oracle o then
          QCheck.Test.fail_reportf "n=%d seed=%d: %s differs from its report form" n
            seed what
      in
      same "validity" Check.Property.validity O.validity;
      same "termination" Check.Property.termination O.termination;
      same "agreement" Check.Property.agreement (O.k_agreement ~k:1);
      for k = 0 to 4 do
        same "k-agreement" (Check.Property.k_agreement ~k) (O.k_agreement ~k)
      done;
      true)

let tests =
  [
    Alcotest.test_case "Pool.search first hit is -j invariant" `Quick
      pool_search_first_hit;
    Alcotest.test_case "fuzz finds and 1-minimally shrinks" `Quick
      fuzz_finds_and_shrinks;
    Alcotest.test_case "exhaustive agrees with fuzz" `Quick
      exhaustive_agrees_with_fuzz;
    Alcotest.test_case "exhaustive proves k=2 safe" `Quick
      exhaustive_proves_safety;
    Alcotest.test_case "short histories padded to horizon" `Quick
      short_history_padded;
    Alcotest.test_case "artifact JSON round-trip + replay" `Quick
      artifact_roundtrip_and_replay;
    Alcotest.test_case "shard union equals the serial fold" `Quick
      shards_cover_the_fold;
    Alcotest.test_case "live trial grid reaches the padded tail" `Quick
      live_trial_grid_covers_the_tail;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        gen_round_never_full;
        gen_respects_predicate;
        campaign_search_j_invariant;
        int_range_shrinks_in_range;
        shrink_candidates_well_formed;
        shrink_strictly_smaller;
        live_trial_is_its_replay;
        properties_match_report_oracle;
      ]
