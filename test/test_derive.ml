(* Check.Derive (E26): every policy derives a sound, tight, certified
   predicate; witnesses really separate; byz projects onto benign;
   exhaustive mode proves tightness; artifacts replay; the whole thing
   is -j invariant. *)

module D = Check.Derive
module H = Rrfd.Fault_history
module P = Rrfd.Predicate

let ok_result = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

(* Small but meaningful budgets: enough observations to refute the
   obviously-false candidates, certification at double that. *)
let fuzz_cfg =
  { D.default_config with observe_trials = 200; certify_trials = 400; seed = 9 }

let exh_cfg =
  { fuzz_cfg with D.n = 3; f = 1; rounds = 3; exhaustive = true }

let fuzz_lat = lazy (ok_result (D.lattice_for ~cfg:fuzz_cfg))
let exh_lat = lazy (ok_result (D.lattice_for ~cfg:exh_cfg))

let derive ~lattice ~cfg policy =
  ok_result (D.derive ~lattice:(Lazy.force lattice) ~cfg ~policy ())

let spec_predicate s = ok_result (Check.Spec.predicate s)

(* Every E21 policy derives a certified, tight predicate whose witnesses
   genuinely separate: each satisfies the derived predicate and violates
   exactly the candidate it refutes. *)
let all_policies_derive () =
  List.iter
    (fun policy ->
      let o = derive ~lattice:fuzz_lat ~cfg:fuzz_cfg policy in
      Alcotest.(check bool) (policy ^ " certified") true o.D.certified;
      Alcotest.(check bool) (policy ^ " tight") true (D.tight o);
      Alcotest.(check bool) (policy ^ " ok") true (D.ok o);
      (* The round layer completes rounds on n − f, so these two are
         sound for every policy — the waiting rule, not the wire damage,
         shapes the induced model. *)
      List.iter
        (fun s ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s sound" policy s)
            true (List.mem s o.D.sound))
        [ "no-self"; Printf.sprintf "async:f=%d" fuzz_cfg.D.f ];
      let derived = D.predicate_of o in
      List.iter
        (fun w ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: witness for %s violates it" policy w.D.spec)
            false
            (P.holds (spec_predicate w.D.spec) w.D.history);
          Alcotest.(check bool)
            (Printf.sprintf "%s: witness for %s satisfies derived" policy
               w.D.spec)
            true
            (P.holds derived w.D.history))
        o.D.witnesses)
    Experiments.E21_faultnet.grid

(* A fresh batch of executions at an unrelated seed satisfies the
   derived predicate — the certificate generalises past its own seeds. *)
let fresh_batch_satisfies () =
  let policy = "drop:p=20" in
  let o = derive ~lattice:fuzz_lat ~cfg:fuzz_cfg policy in
  let derived = D.predicate_of o in
  let adversary = ok_result (Msgnet.Adversary.of_spec policy) in
  for trial = 0 to 99 do
    let rng = Dsim.Rng.create (Dsim.Rng.derive_seed 7777 trial) in
    let h, _ =
      D.induced_history ~adversary ~n:fuzz_cfg.D.n ~f:fuzz_cfg.D.f
        ~rounds:fuzz_cfg.D.rounds ~rng
    in
    if not (P.holds derived h) then
      Alcotest.failf "fresh trial %d violates the derived predicate: %s" trial
        (H.to_string_compact h)
  done

(* Byzantine atoms corrupt content, never delay schedules: at the same
   seed the benign projection of byz derives exactly what "none" does. *)
let byz_projects_onto_benign () =
  let none = derive ~lattice:fuzz_lat ~cfg:fuzz_cfg "none" in
  let byz = derive ~lattice:fuzz_lat ~cfg:fuzz_cfg "byz:m=2,corrupt=1" in
  Alcotest.(check (list string)) "same sound set" none.D.sound byz.D.sound;
  Alcotest.(check (list string))
    "same derived name" none.D.conjuncts byz.D.conjuncts;
  let skeleton o =
    List.map (fun w -> (w.D.spec, w.D.source)) o.D.witnesses
  in
  Alcotest.(check bool) "same witnesses" true (skeleton none = skeleton byz)

(* Exhaustive mode: every frontier member gets an enumeration-backed
   separation — a proof the derived predicate does not imply it. *)
let exhaustive_proves_tightness () =
  let o = derive ~lattice:exh_lat ~cfg:exh_cfg "none" in
  Alcotest.(check bool) "ok" true (D.ok o);
  Alcotest.(check bool) "has separations" true (o.D.separations <> []);
  Alcotest.(check (list string))
    "one separation per frontier member" o.D.frontier
    (List.map (fun w -> w.D.spec) o.D.separations);
  let derived = D.predicate_of o in
  List.iter
    (fun w ->
      Alcotest.(check bool) "enumeration-sourced" true (w.D.source = D.Exhaustive);
      Alcotest.(check bool)
        (w.D.spec ^ " separation satisfies derived")
        true (P.holds derived w.D.history);
      Alcotest.(check bool)
        (w.D.spec ^ " separation violates it")
        false
        (P.holds (spec_predicate w.D.spec) w.D.history))
    o.D.separations

(* Artifact: save → load → replay reproduces everything bit-for-bit. *)
let artifact_roundtrip_and_replay () =
  let o = derive ~lattice:exh_lat ~cfg:exh_cfg "drop:p=30" in
  let path = Filename.temp_file "derive" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Report.write D.codec path o;
      let loaded = ok_result (Report.read D.codec path) in
      Alcotest.(check string) "policy survives" o.D.policy loaded.D.policy;
      Alcotest.(check (list string)) "sound survives" o.D.sound loaded.D.sound;
      let r = ok_result (D.replay loaded) in
      Alcotest.(check bool) "witnesses valid" true r.D.witnesses_valid;
      Alcotest.(check bool) "fuzz reproduced" true r.D.fuzz_reproduced;
      Alcotest.(check bool) "separations valid" true r.D.separations_valid;
      Alcotest.(check bool) "reproduced" true (D.reproduced r))

(* The whole outcome — not just the verdict — is identical at any -j. *)
let j_invariant () =
  let at jobs =
    let cfg = { fuzz_cfg with D.jobs = Some jobs } in
    Report.Codec.to_string ~pretty:true D.codec
      (derive ~lattice:fuzz_lat ~cfg "spike:p=20,factor=8")
  in
  Alcotest.(check string) "-j1 = -j2" (at 1) (at 2)

(* Pinned error-message contract: every spec parser in the stack refuses
   unknown names the same way. *)
let unknown_spec_messages () =
  let check_err what result =
    match result with
    | Ok _ -> Alcotest.failf "%s: bogus spec accepted" what
    | Error e ->
      let prefix = Printf.sprintf "unknown %s \"bogus\", expected one of: " what in
      if not (String.starts_with ~prefix e) then
        Alcotest.failf "%s: unexpected message %S" what e
  in
  check_err "predicate" (Check.Spec.predicate "bogus");
  check_err "adversary" (Msgnet.Adversary.of_spec "bogus");
  check_err "generator" (Check.Spec.generator "bogus")

(* The round-tag driver against full information: the same induced
   history, lies, progress and counts on every E21 policy and on lying,
   equivocating and forging ones. *)
let driver_policies =
  Experiments.E21_faultnet.grid
  @ [ "byz:m=1,equiv=1"; "byz:m=2,corrupt=1"; "byz:m=1,forge=1" ]

let driver_summary (r : _ Msgnet.Round_layer.result) =
  ( H.to_string_compact r.induced,
    H.to_string_compact (Msgnet.Heard_of.to_lie_history r.heard_of),
    r.completed,
    Msgnet.Round_layer.
      [
        r.messages_sent;
        r.messages_delivered;
        r.messages_dropped;
        r.messages_duplicated;
        r.messages_tampered;
      ] )

let round_tags_match_full_info =
  QCheck.Test.make ~count:150 ~name:"round-tag driver = full information"
    QCheck.(
      quad
        (Test_support.int_range 0 (List.length driver_policies - 1))
        (Test_support.int_range 3 5) small_nat int)
    (fun (pi, n, fpick, seed) ->
      let f = fpick mod (((n - 1) / 2) + 1) in
      let adversary =
        ok_result (Msgnet.Adversary.of_spec (List.nth driver_policies pi))
      in
      let run algorithm =
        Msgnet.Round_layer.run ~seed ~adversary ~n ~f ~rounds:4 ~algorithm ()
      in
      driver_summary (run Msgnet.Round_layer.round_tags)
      = driver_summary
          (run (Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n))))

(* The differential above is not vacuous: the Byzantine policies lie. *)
let round_tags_see_lies () =
  let adversary = ok_result (Msgnet.Adversary.of_spec "byz:m=2,corrupt=1") in
  let r =
    Msgnet.Round_layer.run ~seed:3 ~adversary ~n:5 ~f:2 ~rounds:4
      ~algorithm:Msgnet.Round_layer.round_tags ()
  in
  Alcotest.(check bool)
    "tampered" true (r.Msgnet.Round_layer.messages_tampered > 0);
  Alcotest.(check bool)
    "lies recorded" false
    (Rrfd.Pset.is_empty
       (H.cumulative_union (Msgnet.Heard_of.to_lie_history r.heard_of)))

(* The first-violation scan against the full-mask oracle over the same
   observed histories. *)
let scan_agrees_with_masks ~lattice ~cfg policy =
  let o = derive ~lattice ~cfg policy in
  let adversary = ok_result (Msgnet.Adversary.of_spec policy) in
  let histories =
    Runtime.Campaign.run ~jobs:1
      ~seed:(Dsim.Rng.derive_seed cfg.D.seed 1)
      ~trials:cfg.D.observe_trials
      (fun ~trial:_ ~rng ->
        fst
          (D.induced_history ~adversary ~n:cfg.D.n ~f:cfg.D.f
             ~rounds:cfg.D.rounds ~rng))
  in
  let specs = Array.of_list o.D.cands in
  let sound, witnessed =
    Test_support.Oracle.Derive.verdicts ~specs
      ~preds:(Array.map spec_predicate specs) histories
  in
  Alcotest.(check (list string)) (policy ^ " sound") sound o.D.sound;
  Alcotest.(check (list (pair string int)))
    (policy ^ " witness trials") witnessed
    (List.map
       (fun w ->
         match w.D.source with
         | D.Fuzz t ->
           Alcotest.check Test_support.history_t
             (w.D.spec ^ " history") histories.(t) w.D.history;
           (w.D.spec, t)
         | D.Exhaustive -> Alcotest.failf "%s: not a fuzz witness" w.D.spec)
       o.D.witnesses);
  o

let scan_matches_oracle =
  let cfg = { fuzz_cfg with D.observe_trials = 60; certify_trials = 1 } in
  QCheck.Test.make ~count:12 ~name:"first-violation scan = full-mask oracle"
    QCheck.(
      pair (Test_support.int_range 0 (List.length driver_policies - 1)) int)
    (fun (pi, seed) ->
      let policy = List.nth driver_policies pi in
      let cfg = { cfg with D.seed } in
      ignore (scan_agrees_with_masks ~lattice:fuzz_lat ~cfg policy);
      true)

(* A late first violation: under this spike policy four candidates first
   break at observation trial 130. *)
let scan_late_violation () =
  let cfg =
    { fuzz_cfg with
      D.f = 1; rounds = 1; observe_trials = 200; certify_trials = 1; seed = 9 }
  in
  let lattice = lazy (ok_result (D.lattice_for ~cfg)) in
  let o = scan_agrees_with_masks ~lattice ~cfg "spike:p=20,factor=8" in
  let w = List.find (fun w -> w.D.spec = "someone-seen") o.D.witnesses in
  Alcotest.(check bool)
    "first broken beyond trial 100" true (w.D.source = D.Fuzz 130)

(* The E26 fixtures pin behaviour: the current code re-derives each one
   byte for byte, the Byzantine one exercising the lie and forge paths. *)
let golden_rederived () =
  let fixture =
    { D.default_config with observe_trials = 150; certify_trials = 300 }
  in
  List.iter
    (fun (file, cfg, policy) ->
      let o = ok_result (D.derive ~cfg ~policy ()) in
      Test_support.check_fixture ~what:file ~file
        (Report.Codec.to_string D.codec o ^ "\n"))
    [
      ("golden-e26-derive.json", fixture, "drop:p=30");
      ( "golden-e26-derive-exhaustive.json",
        { fixture with D.n = 3; f = 1; rounds = 3; exhaustive = true },
        "none" );
      ( "golden-e26-derive-byz.json",
        fixture,
        "byz:m=1,equiv=1,corrupt=1,forge=1" );
    ]

let tests =
  [
    Alcotest.test_case "every E21 policy derives ok" `Slow all_policies_derive;
    Alcotest.test_case "fresh batch satisfies derived" `Quick
      fresh_batch_satisfies;
    Alcotest.test_case "byz projects onto benign" `Quick
      byz_projects_onto_benign;
    Alcotest.test_case "exhaustive tightness proof" `Slow
      exhaustive_proves_tightness;
    Alcotest.test_case "artifact round-trip + replay" `Slow
      artifact_roundtrip_and_replay;
    Alcotest.test_case "-j invariance of the full artifact" `Quick j_invariant;
    Alcotest.test_case "unknown-spec messages pinned" `Quick
      unknown_spec_messages;
    Alcotest.test_case "round-tag driver records lies" `Quick
      round_tags_see_lies;
    Alcotest.test_case "first violation beyond trial 100" `Quick
      scan_late_violation;
    Alcotest.test_case "golden artifacts re-derived" `Slow golden_rederived;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ round_tags_match_full_info; scan_matches_oracle ]
