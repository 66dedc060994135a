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
  ]
