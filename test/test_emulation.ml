(* Item 4 / item 3 emulations and the knowledge-propagation analysis. *)

module Pset = Rrfd.Pset
module P = Rrfd.Predicate

let closure_gives_shm_predicate =
  (* Item 4: with 2f < n, two async-MP rounds implement one shared-memory
     round: |D_sim| ≤ f and someone is seen by all. *)
  QCheck.Test.make ~name:"E3: 2 rounds of async(f), 2f<n ⇒ one shm round"
    ~count:400
    QCheck.(pair (Test_support.int_range 3 12) (int_bound 100000))
    (fun (n, seed) ->
      let f = (n - 1) / 2 in
      let rng = Dsim.Rng.create seed in
      let detector = Rrfd.Detector_gen.async rng ~n ~f in
      let r = Rrfd.Emulation.two_round_closure ~n ~detector in
      let h = Rrfd.Fault_history.of_rounds ~n [ r.Rrfd.Emulation.simulated ] in
      match Rrfd.Predicate.explain (P.shared_memory ~f) h with
      | None -> true
      | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d: %s" n f reason)

let closure_b_implements_a =
  (* Item 3's B: with f < t and 2t < n, two rounds of B give fault sets of
     size at most f — a round of system A. *)
  QCheck.Test.make ~name:"E2: 2 rounds of mixed(f,t), 2t<n ⇒ one async(f) round"
    ~count:400
    QCheck.(pair (Test_support.int_range 5 14) (int_bound 100000))
    (fun (n, seed) ->
      let t = (n - 1) / 2 in
      if t < 2 then true
      else begin
        let f = t - 1 in
        let rng = Dsim.Rng.create seed in
        let detector = Rrfd.Detector_gen.async_mixed rng ~n ~f ~t in
        let r = Rrfd.Emulation.two_round_closure ~n ~detector in
        let h = Rrfd.Fault_history.of_rounds ~n [ r.Rrfd.Emulation.simulated ] in
        match Rrfd.Predicate.explain (P.async_resilient ~f) h with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d t=%d: %s" n f t reason
      end)

(* A detector's output is only valid until its next query, and the
   generators reuse one output array.  The closure must not depend on
   that: under a wrapper that hands out a fresh copy of every round it
   must be identical, for a reusing [async] and a reusing [k_set]. *)
let closure_survives_buffer_reuse =
  QCheck.Test.make ~name:"closure is unchanged when every round is copied"
    ~count:300
    QCheck.(triple (Test_support.int_range 2 9) (int_bound 100000) bool)
    (fun (n, seed, kset) ->
      let make rng =
        if kset then Rrfd.Detector_gen.k_set rng ~n ~k:(1 + (seed mod n))
        else Rrfd.Detector_gen.async rng ~n ~f:(if seed mod 2 = 0 then (n - 1) / 2 else n - 1)
      in
      let closure detector =
        let r = Rrfd.Emulation.two_round_closure ~n ~detector in
        (r.Rrfd.Emulation.simulated, r.Rrfd.Emulation.underlying)
      in
      let s1, u1 = closure (make (Dsim.Rng.create seed)) in
      let s2, u2 =
        closure
          (Rrfd.Detector.map ~name:"copied"
             (fun _ round -> Array.copy round)
             (make (Dsim.Rng.create seed)))
      in
      Array.for_all2 Pset.equal s1 s2
      && Rrfd.Fault_history.equal u1 u2)

(* Item 4's alternative predicate: under P3 ∧ antisymmetry, somebody's
   round-1 value is known to all within n rounds (the cycle-length
   argument). *)
let known_by_all_within_n =
  QCheck.Test.make ~name:"E14: known-by-all within n rounds under antisymmetry"
    ~count:300
    QCheck.(pair (Test_support.int_range 2 10) (int_bound 100000))
    (fun (n, seed) ->
      let f = max 1 ((n - 1) / 2) in
      let rng = Dsim.Rng.create seed in
      let detector = Rrfd.Detector_gen.antisymmetric rng ~n ~f in
      match
        fst (Rrfd.Emulation.known_by_all_observed ~n ~detector ~max_rounds:n)
      with
      | Some r -> r <= n
      | None -> QCheck.Test.fail_reportf "nobody known by all after n rounds")

let knowledge_on_explicit_history () =
  let s = Pset.of_list in
  (* p0 misses p1, p1 misses p2, p2 misses p0 — the 3-cycle: nobody known
     by all after one round... *)
  let cycle = [| s [ 1 ]; s [ 2 ]; s [ 0 ] |] in
  let h1 = Rrfd.Fault_history.of_rounds ~n:3 [ cycle ] in
  Alcotest.(check (option int)) "cycle blocks round 1" None
    (Rrfd.Emulation.knowledge_rounds h1);
  (* ...but a clean second round finishes the job. *)
  let h2 = Rrfd.Fault_history.of_rounds ~n:3 [ cycle; [| s []; s []; s [] |] ] in
  Alcotest.(check (option int)) "clean round 2 resolves" (Some 2)
    (Rrfd.Emulation.knowledge_rounds h2)

(* The paper conjectures two rounds suffice under the alternative
   shared-memory predicate; search exhaustively for a counterexample at
   n = 3 and record the outcome either way. *)
let two_round_conjecture_exhaustive () =
  let predicate = P.shared_memory_alt ~f:2 in
  let counterexample =
    Adversary.Enumerate.find ~n:3 ~rounds:2 ~satisfying:predicate ~f:(fun h ->
        Rrfd.Emulation.knowledge_rounds h = None)
  in
  (* We record the result rather than assert a side: the conjecture is open
     in the paper.  At n = 3 the search settles it for this system size. *)
  match counterexample with
  | None -> () (* conjecture holds at n = 3 *)
  | Some h ->
    (* a genuine counterexample must still satisfy the predicate *)
    Alcotest.(check bool) "counterexample is legal" true
      (Rrfd.Predicate.holds predicate h)

let tests =
  [
    Alcotest.test_case "knowledge on explicit history" `Quick
      knowledge_on_explicit_history;
    Alcotest.test_case "two-round conjecture search (n=3)" `Slow
      two_round_conjecture_exhaustive;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        closure_gives_shm_predicate;
        closure_b_implements_a;
        closure_survives_buffer_reuse;
        known_by_all_within_n;
      ]
