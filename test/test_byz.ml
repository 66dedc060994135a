(* The E24 Byzantine battery: two-sided accountability (fuzzed soundness
   over ≥ 10k lying plans, exhaustive completeness at n=4 f=1), lie
   attribution in the round layer's heard-of record, the CT equivocation
   audit, the Byzantine-aware predicates, and e24-byz artifact replay. *)

module Pset = Rrfd.Pset
module Acc = Msgnet.Accountability
module Byz = Check.Byz_check

let pset = Alcotest.testable (Fmt.of_to_string Pset.to_string) Pset.equal

(* The split-brain plan: every Byzantine member echoes each receiver's own
   input — the strongest fork driver in the strategy space. *)
let split_brain ~n ~f ~byz ~seed =
  let inputs = Byz.binary_inputs n in
  let strategies = Array.make n None in
  for i = 0 to byz - 1 do
    strategies.(i) <- Some { Acc.votes = Array.copy inputs; cert = None }
  done;
  { Byz.n; f; seed; inputs; strategies }

(* A split-brain witness that provably forks, found by walking derived
   delay schedules (deterministic; the demo CLI does the same walk). *)
let forking_witness =
  lazy
    (let rec hunt k =
       if k > 500 then Alcotest.fail "no forking schedule within 500 tries"
       else
         let w =
           split_brain ~n:4 ~f:1 ~byz:2 ~seed:(Dsim.Rng.derive_seed 0 k)
         in
         if Byz.forks w then w else hunt (k + 1)
     in
     hunt 0)

(* Soundness, fuzzed: over ≥ 10k random lying plans — equivocating votes
   and forged certificates — the audit never accuses an honest process,
   and every fork it does see convicts ≥ f+1.  Forks must actually occur
   or the run proves nothing. *)
let fuzz_soundness () =
  let r = Byz.fuzz ~seed:42 ~trials:6_000 () in
  Alcotest.(check int) "plain: no violations" 0 r.Byz.violations;
  Alcotest.(check bool) "plain: forks occurred" true (r.Byz.forked > 0);
  let rf = Byz.fuzz ~seed:43 ~trials:6_000 ~forge:true () in
  Alcotest.(check int) "forged: no violations" 0 rf.Byz.violations;
  Alcotest.(check bool) "forged: forks occurred" true (rf.Byz.forked > 0);
  Alcotest.(check bool)
    "forged certs were actually injected" true
    (rf.Byz.tampered > r.Byz.tampered)

(* The fuzzer is a Runtime.Campaign: its whole record — including which
   trial a hypothetical violation would land on — is -j independent. *)
let fuzz_determinism () =
  let a = Byz.fuzz ~jobs:1 ~seed:7 ~trials:500 ~forge:true () in
  let b = Byz.fuzz ~jobs:4 ~seed:7 ~trials:500 ~forge:true () in
  Alcotest.(check int) "forked" a.Byz.forked b.Byz.forked;
  Alcotest.(check int) "tampered" a.Byz.tampered b.Byz.tampered;
  Alcotest.(check int) "violations" a.Byz.violations b.Byz.violations

(* Completeness, proved: the entire per-receiver vote-strategy space at
   n=4, f=1, byz=2 (16² = 256 combinations, 3 schedules each).  Every
   fork in the space convicts ≥ f+1 = 2, and no plan anywhere in it
   frames an honest process. *)
let exhaustive_completeness () =
  let r = Byz.exhaustive ~seed:7 () in
  Alcotest.(check int) "covers 256 combos" 256 r.Byz.combos;
  Alcotest.(check int) "no violations" 0 r.Byz.violations;
  Alcotest.(check bool) "forks occurred (claim is not vacuous)" true
    (r.Byz.forked > 0);
  match r.Byz.min_accused_on_fork with
  | None -> Alcotest.fail "forked > 0 but no accused minimum"
  | Some m ->
    Alcotest.(check bool) "every fork convicts >= f+1 = 2" true (m >= 2)

(* The intersection bound, on a concrete fork: two honest deciders'
   quorums overlap in >= n - 2f processes, every one Byzantine. *)
let fork_anatomy () =
  let w = Lazy.force forking_witness in
  let o = Byz.run_witness w in
  (match o.Acc.fork with
  | None -> Alcotest.fail "witness no longer forks"
  | Some (p, q) ->
    let quorum i =
      match o.Acc.decisions.(i) with
      | Some (_, q) -> q
      | None -> Alcotest.fail "forked process did not decide"
    in
    let overlap = Pset.inter (quorum p) (quorum q) in
    Alcotest.(check bool) "overlap >= n - 2f" true (Pset.cardinal overlap >= 2);
    Alcotest.(check bool) "overlap is all-Byzantine" true
      (Pset.subset overlap o.Acc.byzantine));
  Alcotest.(check pset) "exactly the members are convicted" o.Acc.byzantine
    o.Acc.accused;
  List.iter
    (fun (a : Acc.accusation) ->
      match a.Acc.proof with
      | Acc.Equivocation { first; second } ->
        Alcotest.(check int) "both halves signed by the accused"
          a.Acc.accused first.Msgnet.Network.signer;
        Alcotest.(check int) "second half too" a.Acc.accused
          second.Msgnet.Network.signer;
        Alcotest.(check bool) "halves conflict" true
          (first.Msgnet.Network.payload <> second.Msgnet.Network.payload
          && fst first.Msgnet.Network.payload
             = fst second.Msgnet.Network.payload)
      | Acc.Phantom_quorum _ -> ())
    o.Acc.accusations

(* An honest execution: nobody decides differently, nobody is accused,
   nothing is tampered. *)
let honest_baseline () =
  let o =
    Acc.run ~seed:11 ~n:4 ~f:1
      ~inputs:(Byz.binary_inputs 4)
      ~strategies:(Array.make 4 None) ()
  in
  Alcotest.(check bool) "no fork" true (o.Acc.fork = None);
  Alcotest.(check pset) "no accusations" Pset.empty o.Acc.accused;
  Alcotest.(check int) "no tampering" 0 o.Acc.messages_tampered

(* Lie attribution in the round layer: under byz:* specs the heard-of
   record's "lied" component only ever names adversary members, lied is
   a subset of heard by construction, the fused byz history is the
   pointwise union, and n - m honest processes stay clean in the lie
   history (the eventual-honest-kernel predicate). *)
let round_layer_lies () =
  List.iter
    (fun (spec, n, m) ->
      let adversary =
        match Msgnet.Adversary.of_spec spec with
        | Ok a -> a
        | Error e -> Alcotest.fail e
      in
      let members = Msgnet.Adversary.byzantine adversary ~n in
      Alcotest.(check int) (spec ^ ": member count") m (Pset.cardinal members);
      let r =
        Msgnet.Round_layer.run ~seed:5 ~adversary ~n ~f:((n - 1) / 2) ~rounds:3
          ~algorithm:(Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct n))
          ()
      in
      let ho = r.Msgnet.Round_layer.heard_of in
      let lie_h = Msgnet.Heard_of.to_lie_history ho in
      Alcotest.(check bool)
        (spec ^ ": lies only from members")
        true
        (Pset.subset (Rrfd.Fault_history.cumulative_union lie_h) members);
      for i = 0 to n - 1 do
        for round = 1 to Rrfd.Fault_history.rounds lie_h do
          match
            ( Msgnet.Heard_of.lied ho ~proc:i ~round,
              Msgnet.Heard_of.heard ho ~proc:i ~round )
          with
          | Some lied, Some heard ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: lied ⊆ heard at (p%d,r%d)" spec i round)
              true (Pset.subset lied heard)
          | None, None -> ()
          | _ ->
            Alcotest.failf "%s: lied/heard desynchronised at (p%d,r%d)" spec i
              round
        done
      done;
      let fused = Msgnet.Heard_of.to_byz_history ho in
      Alcotest.(check bool)
        (spec ^ ": fused = silent ∪ lied")
        true
        (Rrfd.Fault_history.equal fused
           (Rrfd.Fault_history.union
              (Msgnet.Heard_of.to_history ho)
              lie_h));
      Alcotest.(check bool)
        (spec ^ ": honest kernel of n-m in the lie history")
        true
        (Rrfd.Predicate.holds
           (Rrfd.Predicate.eventual_honest_kernel ~k:(n - m))
           lie_h);
      if m > 0 then
        Alcotest.(check bool)
          (spec ^ ": tampering actually happened")
          true
          (r.Msgnet.Round_layer.messages_tampered > 0))
    [
      ("byz:m=1,equiv=1", 4, 1);
      ("byz:m=1,corrupt=1", 4, 1);
      ("byz:m=2,corrupt=1", 5, 2);
      ("byz:m=2,equiv=1,forge=1", 5, 2);
    ]

(* The CT probe: a corrupt member can fork CT (it trusts Decide on
   receipt), but the equivocation audit never accuses an honest
   process. *)
let ct_audit_sound () =
  let adversary =
    match Msgnet.Adversary.of_spec "byz:m=1,corrupt=1" with
    | Ok a -> a
    | Error e -> Alcotest.fail e
  in
  let members = Msgnet.Adversary.byzantine adversary ~n:4 in
  for seed = 0 to 19 do
    let r =
      Msgnet.Ct_consensus.run ~seed ~adversary ~n:4 ~f:1
        ~inputs:[| 0; 1; 0; 1 |] ~horizon:240.0 ()
    in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: accused ⊆ members" seed)
      true
      (Pset.subset r.Msgnet.Ct_consensus.accused members)
  done

(* The Byzantine-aware predicates on hand-built histories. *)
let predicates () =
  let h sets = Rrfd.Fault_history.of_rounds ~n:4 sets in
  let s l = Pset.of_list l in
  let quiet = h [ Array.make 4 (s [ 0 ]) ] in
  let noisy = h [ Array.make 4 (s [ 0 ]); Array.make 4 (s [ 0; 1 ]) ] in
  let healing =
    h [ Array.make 4 (s [ 0; 1; 2 ]); Array.make 4 (s [ 0 ]) ]
  in
  let check name p hist expect =
    Alcotest.(check bool) name expect (Rrfd.Predicate.holds p hist)
  in
  check "bound f=1 holds" (Rrfd.Predicate.byzantine_round_bound ~f:1) quiet true;
  check "bound f=1 fails on a 2-liar round"
    (Rrfd.Predicate.byzantine_round_bound ~f:1)
    noisy false;
  check "bound f=2 absorbs it"
    (Rrfd.Predicate.byzantine_round_bound ~f:2)
    noisy true;
  check "kernel k=3 on one clean round"
    (Rrfd.Predicate.eventual_honest_kernel ~k:3)
    quiet true;
  check "kernel k=3 fails when the last round has 2 liars"
    (Rrfd.Predicate.eventual_honest_kernel ~k:3)
    noisy false;
  check "kernel recovers after a bad first round"
    (Rrfd.Predicate.eventual_honest_kernel ~k:3)
    healing true;
  (* Pointwise union pads the shorter history with empty rounds. *)
  let u = Rrfd.Fault_history.union quiet noisy in
  Alcotest.(check int) "union keeps the longer round count" 2
    (Rrfd.Fault_history.rounds u);
  Alcotest.(check pset) "round 1 is the pointwise union" (s [ 0 ])
    (Rrfd.Fault_history.d u ~proc:2 ~round:1);
  Alcotest.(check pset) "round 2 comes from the longer side" (s [ 0; 1 ])
    (Rrfd.Fault_history.d u ~proc:2 ~round:2)

(* The spec vocabulary reaches the new predicates. *)
let spec_vocabulary () =
  (match Check.Spec.predicate "byz-round:f=2" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    let noisy =
      Rrfd.Fault_history.of_rounds ~n:4
        [ Array.make 4 (Pset.of_list [ 0; 1 ]) ]
    in
    Alcotest.(check bool) "byz-round:f=2 evaluates" true
      (Rrfd.Predicate.holds p noisy));
  match Check.Spec.predicate "honest-kernel:k=3" with
  | Error e -> Alcotest.fail e
  | Ok p ->
    Alcotest.(check bool) "honest-kernel:k=3 evaluates" true
      (Rrfd.Predicate.holds p (Rrfd.Fault_history.empty ~n:4))

(* Artifact round-trip: a forked witness survives JSON — including a
   full-width 63-bit schedule seed — and replays to the identical fork
   flag and accused set. *)
let artifact_roundtrip () =
  let w = Lazy.force forking_witness in
  let artifact = Byz.of_outcome w (Byz.run_witness w) in
  Alcotest.(check bool) "expectation pins a fork" true artifact.Byz.expected_fork;
  let json = Byz.codec.enc artifact in
  let back = Test_support.ok_exn (Report.Codec.decode Byz.codec json) in
  Alcotest.(check int) "seed survives verbatim" w.Byz.seed
    back.Byz.witness.Byz.seed;
  let path = Filename.temp_file "e24_byz" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.write ~pretty:true Byz.codec path artifact;
      let r = Byz.replay (Test_support.ok_exn (Report.read Byz.codec path)) in
      Alcotest.(check bool) "replay reproduces" true (Byz.reproduced r);
      Alcotest.(check bool) "replayed verdict accountable" true
        (r.Byz.verdict = Acc.Accountable));
  (* Malformed inputs are rejected, not misread. *)
  let reject name j =
    match Report.Codec.decode Byz.codec j with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s should not parse" name
  in
  (match json with
  | Report.Json.Obj fields ->
    reject "wrong version"
      (Report.Json.Obj
         (("version", Report.Json.Number 99.0)
         :: List.remove_assoc "version" fields));
    reject "wrong kind"
      (Report.Json.Obj
         (("kind", Report.Json.String "e20-counterexample")
         :: List.remove_assoc "kind" fields))
  | _ -> Alcotest.fail "artifact JSON is not an object")

let tests =
  [
    Alcotest.test_case "fuzz: audit soundness over 12k lying plans" `Slow
      fuzz_soundness;
    Alcotest.test_case "fuzz: campaign is -j independent" `Quick
      fuzz_determinism;
    Alcotest.test_case "exhaustive: completeness proved at n=4 f=1" `Slow
      exhaustive_completeness;
    Alcotest.test_case "fork anatomy: quorum overlap is all-Byzantine" `Quick
      fork_anatomy;
    Alcotest.test_case "honest baseline: nothing accused" `Quick
      honest_baseline;
    Alcotest.test_case "round layer: lies attributed only to members" `Quick
      round_layer_lies;
    Alcotest.test_case "ct: equivocation audit never frames honest" `Quick
      ct_audit_sound;
    Alcotest.test_case "predicates: byz-round bound + honest kernel" `Quick
      predicates;
    Alcotest.test_case "spec: byz predicate vocabulary" `Quick spec_vocabulary;
    Alcotest.test_case "artifact: e24-byz JSON round-trip + replay" `Quick
      artifact_roundtrip;
  ]
