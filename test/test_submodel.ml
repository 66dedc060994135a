(* The submodel relation of Section 2 (E13): exhaustive checks at n = 3 and
   sampled checks at larger sizes. *)

module P = Rrfd.Predicate
module S = Rrfd.Submodel

let implies name a b =
  match S.check_exhaustive ~n:3 ~rounds:2 a b with
  | S.Implies -> ()
  | S.Counterexample h ->
    Alcotest.failf "%s: unexpected counterexample:@ %a" name
      Rrfd.Fault_history.pp h

let refuted name a b =
  match S.check_exhaustive ~n:3 ~rounds:2 a b with
  | S.Counterexample _ -> ()
  | S.Implies -> Alcotest.failf "%s: expected a counterexample" name

let lattice_positive () =
  implies "crash ⇒ omission" (P.crash ~f:1) (P.omission ~f:1);
  implies "omission ⇒ async (same f)" (P.omission ~f:1) (P.async_resilient ~f:1);
  implies "snapshot ⇒ shm" (P.snapshot ~f:1) (P.shared_memory ~f:1);
  implies "shm ⇒ async" (P.shared_memory ~f:1) (P.async_resilient ~f:1);
  implies "identical ⇒ k-set(1)" P.identical_views (P.k_set ~k:1);
  implies "k-set(1) ⇒ k-set(2)" (P.k_set ~k:1) (P.k_set ~k:2);
  implies "async(1) ⇒ async(2)" (P.async_resilient ~f:1) (P.async_resilient ~f:2);
  implies "async(f) ⇒ mixed(f,t)" (P.async_resilient ~f:1) (P.async_mixed ~f:1 ~t:2);
  implies "omission(f = n−1) ⇒ detector-S" (P.omission ~f:2) P.detector_s;
  implies "snapshot ⇒ not-all-faulty" (P.snapshot ~f:2) P.not_all_faulty

let lattice_negative () =
  refuted "omission ⇏ crash" (P.omission ~f:1) (P.crash ~f:1);
  refuted "async ⇏ omission" (P.async_resilient ~f:1) (P.omission ~f:1);
  refuted "async ⇏ shm" (P.async_resilient ~f:1) (P.shared_memory ~f:1);
  refuted "shm ⇏ snapshot" (P.shared_memory ~f:1) (P.snapshot ~f:1);
  refuted "k-set(2) ⇏ k-set(1)" (P.k_set ~k:2) (P.k_set ~k:1);
  refuted "mixed(f,t) ⇏ async(f)" (P.async_mixed ~f:1 ~t:2) (P.async_resilient ~f:1);
  refuted "antisym alone ⇏ someone-seen-by-all"
    (P.conj (P.async_resilient ~f:2) P.antisymmetric_misses)
    P.someone_seen_by_all

(* The paper's item-6 equivalence: the detector-S predicate equals
   |∪∪D| < n, i.e. omission with f = n − 1. *)
let detector_s_equals_wait_free_omission () =
  let omission_wait_free =
    P.make ~name:"cumulative<n" ~doc:"|∪∪D| < n" (fun h ->
        if
          Rrfd.Pset.cardinal (Rrfd.Fault_history.cumulative_union h)
          < Rrfd.Fault_history.n h
        then None
        else Some "union covers everyone")
  in
  implies "S ⇒ |∪∪D| < n" P.detector_s omission_wait_free;
  implies "|∪∪D| < n ⇒ S" omission_wait_free P.detector_s

let sampled_agrees_with_exhaustive () =
  let rng = Dsim.Rng.create 17 in
  (* positive direction on a bigger system *)
  (match
     S.check_sampled rng ~samples:300 ~rounds:3
       ~gen:(fun rng -> Rrfd.Detector_gen.crash rng ~n:6 ~f:2)
       ~n:6 (P.crash ~f:2) (P.omission ~f:2)
   with
  | S.Implies -> ()
  | S.Counterexample _ -> Alcotest.fail "crash ⇒ omission refuted by sampling");
  (* negative direction found by sampling *)
  match
    S.check_sampled rng ~samples:300 ~rounds:3
      ~gen:(fun rng -> Rrfd.Detector_gen.omission rng ~n:6 ~f:2)
      ~n:6 (P.omission ~f:2) (P.crash ~f:2)
  with
  | S.Counterexample _ -> ()
  | S.Implies -> Alcotest.fail "sampling missed an easy counterexample"

let model_generators_match_their_predicates () =
  (* Every Check.Spec generator satisfies the predicate it is paired with,
     at the spec defaults and, where it takes one, at f = 2. *)
  let rng = Dsim.Rng.create 23 in
  let check spec (gen, predicate) =
    match
      S.check_sampled rng ~samples:100 ~rounds:3
        ~gen:(fun rng -> gen rng ~n:5)
        ~n:5 Rrfd.Predicate.always predicate
    with
    | S.Implies -> ()
    | S.Counterexample h ->
      Alcotest.failf "%s: generator broke its predicate:@ %a" spec
        Rrfd.Fault_history.pp h
  in
  (* generator_names reads "omission:f=_, ..., async-mixed:f=_,t=_, ...". *)
  List.iter
    (fun entry ->
      let name =
        List.hd (String.split_on_char ':' (List.hd (String.split_on_char ',' entry)))
      in
      match Check.Spec.generator name with
      | Error msg -> Alcotest.fail msg
      | Ok g ->
        check name g;
        let f2 = name ^ ":f=2" in
        Result.iter (check f2) (Check.Spec.generator f2))
    (String.split_on_char ' ' Check.Spec.generator_names)

(* ------------------------------------------------------------------ *)
(* qcheck properties of the checkers themselves.                       *)
(* ------------------------------------------------------------------ *)

(* A varied pool of named predicates; properties draw indices into it. *)
let pool =
  [|
    ("true", P.always);
    ("no-self", P.no_self_suspicion);
    ("crash-closure", P.crash_closure);
    ("someone-seen", P.someone_seen_by_all);
    ("antisym", P.antisymmetric_misses);
    ("detector-s", P.detector_s);
    ("eq5", P.identical_views);
    ("kset:k=1", P.k_set ~k:1);
    ("kset:k=2", P.k_set ~k:2);
    ("async:f=1", P.async_resilient ~f:1);
    ("async:f=2", P.async_resilient ~f:2);
    ("omission:f=1", P.omission ~f:1);
    ("omission:f=2", P.omission ~f:2);
    ("crash:f=1", P.crash ~f:1);
    ("shm:f=1", P.shared_memory ~f:1);
    ("shm-alt:f=1", P.shared_memory_alt ~f:1);
    ("snapshot:f=1", P.snapshot ~f:1);
    ("async-mixed:f=1,t=2", P.async_mixed ~f:1 ~t:2);
  |]

let reflexivity_property =
  QCheck.Test.make ~name:"check_exhaustive is reflexive" ~count:18
    QCheck.(int_bound (Array.length pool - 1))
    (fun i ->
      let _, p = pool.(i) in
      S.check_exhaustive ~n:3 ~rounds:1 p p = S.Implies)

(* With one fixed sample set, "no sampled history satisfies a but not b"
   is a transitive relation — a theorem, provided every pairwise check
   sees the *same* samples.  Identically-seeded fresh RNGs guarantee
   that (check_sampled splits its argument per sample, deterministic in
   the seed). *)
let sampled_implies a b =
  S.check_sampled (Dsim.Rng.create 77) ~samples:60 ~rounds:2
    ~gen:(fun rng -> Rrfd.Detector_gen.async rng ~n:4 ~f:3)
    ~n:4 a b
  = S.Implies

let transitivity_property =
  QCheck.Test.make ~name:"sampled Implies is transitive on a fixed sample set"
    ~count:120
    QCheck.(
      triple
        (int_bound (Array.length pool - 1))
        (int_bound (Array.length pool - 1))
        (int_bound (Array.length pool - 1)))
    (fun (i, j, k) ->
      let _, a = pool.(i) and _, b = pool.(j) and _, c = pool.(k) in
      (not (sampled_implies a b && sampled_implies b c))
      || sampled_implies a c)

(* Regression pin: the first counterexample the exhaustive walk reports
   for a known non-implication must stay exactly this history (the
   enumeration order is part of the artifact-replay contract). *)
let pinned_counterexample () =
  match S.check_exhaustive ~n:3 ~rounds:2 (P.omission ~f:1) (P.crash ~f:1) with
  | S.Implies -> Alcotest.fail "omission:f=1 ⇒ crash:f=1 should be refuted"
  | S.Counterexample h ->
    Alcotest.(check string)
      "first counterexample pinned" "n=3;1:{}{}{1};2:{}{}{}"
      (Rrfd.Fault_history.to_string_compact h);
    Alcotest.(check bool) "satisfies the left side" true
      (P.holds (P.omission ~f:1) h);
    Alcotest.(check bool) "violates the right side" false
      (P.holds (P.crash ~f:1) h)

(* ------------------------------------------------------------------ *)
(* The named-predicate lattice (E26's order oracle).                   *)
(* ------------------------------------------------------------------ *)

let small_named =
  [
    ("true", P.always);
    ("async", P.async_resilient ~f:1);
    ("someone-seen", P.someone_seen_by_all);
    ("shm", P.shared_memory ~f:1);
    ("omission", P.omission ~f:1);
    ("crash", P.crash ~f:1);
  ]

let small_lattice = lazy (S.lattice ~n:3 ~rounds:2 small_named)

(* The bitset lattice must answer every pair exactly as the pairwise
   exhaustive walk does — same space, same verdicts. *)
let lattice_agrees_with_check_exhaustive () =
  let lat = Lazy.force small_lattice in
  List.iter
    (fun (na, pa) ->
      List.iter
        (fun (nb, pb) ->
          let expected =
            match S.check_exhaustive ~n:3 ~rounds:2 pa pb with
            | S.Implies -> true
            | S.Counterexample _ -> false
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s ⇒ %s" na nb)
            expected (S.implies lat na nb))
        small_named)
    small_named

let lattice_neighbours () =
  let lat = Lazy.force small_lattice in
  Alcotest.(check bool) "shm strictly stronger than async" true
    (S.strictly_stronger lat "shm" "async");
  Alcotest.(check bool) "async not stronger than shm" false
    (S.strictly_stronger lat "async" "shm")

let lattice_meet_and_frontier () =
  let lat = Lazy.force small_lattice in
  Alcotest.(check (list string))
    "redundant conjuncts dropped" [ "crash" ]
    (S.minimal_conjuncts lat [ "true"; "async"; "omission"; "crash" ]);
  Alcotest.(check (list string))
    "conjunction of incomparables kept" [ "async"; "someone-seen" ]
    (S.minimal_conjuncts lat [ "true"; "async"; "someone-seen" ]);
  Alcotest.(check (list string))
    "weakest of a chain plus branch" [ "shm" ]
    (S.weakest lat [ "crash"; "omission"; "shm" ]);
  (* omission:f=1 confines misses to one faulty set, so |⋃D| ≤ 1 < n:
     it is strictly stronger than someone-seen and drops out. *)
  Alcotest.(check (list string))
    "dominated members drop out" [ "someone-seen" ]
    (S.weakest lat [ "someone-seen"; "omission"; "crash" ]);
  Alcotest.(check (list string))
    "incomparables are all weakest" [ "async"; "someone-seen" ]
    (S.weakest lat [ "async"; "someone-seen"; "crash" ])

(* ------------------------------------------------------------------ *)
(* The orbit walk: its precondition, its size and the old walk.        *)
(* ------------------------------------------------------------------ *)

module H = Rrfd.Fault_history
module O = Test_support.Oracle.Submodel

(* Every entry of [Check.Spec.predicate_names], each [_] bound to the
   value drawn for the parameter letter before its [=]. *)
let vocabulary ~f ~k ~t =
  List.map
    (fun entry ->
      let entry =
        if String.ends_with ~suffix:"," entry then
          String.sub entry 0 (String.length entry - 1)
        else entry
      in
      let b = Buffer.create 24 in
      String.iteri
        (fun i c ->
          if c <> '_' then Buffer.add_char b c
          else
            Buffer.add_string b
              (string_of_int
                 (match entry.[i - 2] with
                 | 'f' -> f
                 | 'k' -> k
                 | 't' -> t
                 | c -> Alcotest.failf "parameter %c of %S" c entry)))
        entry;
      let spec = Buffer.contents b in
      (spec, Test_support.ok_exn (Check.Spec.predicate spec)))
    (String.split_on_char ' ' Check.Spec.predicate_names)

let renaming_arb =
  let gen =
    QCheck.Gen.(
      QCheck.gen (Test_support.int_range 2 5) >>= fun n ->
      let below = int_bound (n - 1) in
      triple (Test_support.perm_gen ~n)
        (Test_support.history_gen ~max_rounds:3 ~n)
        (triple below below below))
  in
  QCheck.make gen ~print:(fun (perm, h, (f, k, t)) ->
      Printf.sprintf "perm=[%s] f=%d k=%d t=%d %s"
        (String.concat ";" (Array.to_list (Array.map string_of_int perm)))
        f k t (H.to_string_compact h))

(* The lattice's precondition: renaming processes never changes a
   verdict, so every accept set is a union of S_n orbits. *)
let renaming_invariant ~name predicates =
  QCheck.Test.make ~name ~count:300 renaming_arb (fun (perm, h, (f, k, t)) ->
      List.for_all
        (fun (spec, p) ->
          P.holds p (Test_support.rename perm h) = P.holds p h
          || QCheck.Test.fail_reportf "%s changes its verdict" spec)
        (predicates ~f ~k ~t))

let vocabulary_is_renaming_invariant =
  renaming_invariant ~name:"every spec predicate is invariant under renaming"
    vocabulary

(* The same property refutes a predicate that singles out a process. *)
let asymmetric_predicate_is_caught () =
  let p0_never_suspected =
    P.make ~name:"p0-never-suspected" ~doc:"∀i,r. p0 ∉ D(i,r)" (fun h ->
        if Rrfd.Pset.mem 0 (H.cumulative_union h) then Some "p0 suspected"
        else None)
  in
  let test =
    renaming_invariant ~name:"asymmetric" (fun ~f:_ ~k:_ ~t:_ ->
        [ ("p0-never-suspected", p0_never_suspected) ])
  in
  match QCheck.Test.check_exn ~rand:(Random.State.make [| 29 |]) test with
  | () -> Alcotest.fail "renaming never changed an asymmetric verdict"
  | exception QCheck.Test.Test_fail _ -> ()

(* A predicate counting its calls sees the histories the lattice walks. *)
let evaluations ~n ~rounds =
  let calls = ref 0 in
  let counting =
    P.make ~name:"count" ~doc:"counts evaluations"
      ~holds:(fun _ ->
        incr calls;
        true)
      (fun _ -> None)
  in
  ignore (S.lattice ~n ~rounds [ ("count", counting) ]);
  !calls

(* S_n orbits of the space, by brute force: distinct least renamings. *)
let orbits ~n ~rounds =
  let perms =
    let rec go = function
      | [] -> [ [] ]
      | pool ->
        List.concat_map
          (fun x -> List.map (List.cons x) (go (List.filter (( <> ) x) pool)))
          pool
    in
    List.map Array.of_list (go (List.init n Fun.id))
  in
  let seen = Hashtbl.create 1024 in
  let assignments = S.round_assignments ~n in
  let rec explore h depth =
    let canonical =
      List.fold_left
        (fun acc perm -> min acc (H.to_string_compact (Test_support.rename perm h)))
        (H.to_string_compact h) perms
    in
    Hashtbl.replace seen canonical ();
    if depth < rounds then
      List.iter (fun d -> explore (H.append h d) (depth + 1)) assignments
  in
  explore (H.empty ~n) 0;
  Hashtbl.length seen

let lattice_walks_one_history_per_orbit () =
  List.iter
    (fun (n, rounds) ->
      Alcotest.(check int)
        (Printf.sprintf "n=%d, %d round(s)" n rounds)
        (orbits ~n ~rounds) (evaluations ~n ~rounds))
    [ (2, 3); (3, 1) ];
  (* Derive's two lattice shapes, of 50,626 and 117,993 histories; the
     orbit counts are brute-force counts by [orbits]. *)
  Alcotest.(check int) "n=4, 1 round" 2341 (evaluations ~n:4 ~rounds:1);
  Alcotest.(check int) "n=3, 2 rounds" 19916 (evaluations ~n:3 ~rounds:2)

(* Derive's vocabularies at both lattice shapes: the orbit lattice answers
   every pair, and random name lists, exactly as the per-history walk. *)
let lattice_matches_per_history_walk () =
  let mismatches = ref [] in
  let agree what old_answer answer =
    if old_answer <> answer then mismatches := what :: !mismatches
  in
  List.iter
    (fun (n, f) ->
      let named =
        List.map
          (fun s -> (s, Test_support.ok_exn (Check.Spec.predicate s)))
          (Check.Derive.candidates ~n ~f)
      in
      let names = List.map fst named in
      List.iter
        (fun (n', rounds) ->
          let lat = S.lattice ~n:n' ~rounds named
          and old = O.lattice ~n:n' ~rounds named in
          let where =
            Printf.sprintf "(n, f) = (%d, %d), n'=%d, rounds=%d" n f n' rounds
          in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let pair = Printf.sprintf "%s: %s, %s" where a b in
                  agree (pair ^ " implies") (O.implies old a b)
                    (S.implies lat a b);
                  agree (pair ^ " equivalent") (O.equivalent old a b)
                    (S.equivalent lat a b))
                names)
            names;
          let rs = Random.State.make [| n; f; n'; rounds |] in
          for _ = 1 to 100 do
            let subset =
              List.filter (fun _ -> Random.State.bool rs) names
              |> List.map (fun s -> (Random.State.bits rs, s))
              |> List.sort compare |> List.map snd
            in
            let what = where ^ ": " ^ String.concat " " subset in
            agree (what ^ " minimal_conjuncts")
              (O.minimal_conjuncts old subset)
              (S.minimal_conjuncts lat subset);
            agree (what ^ " weakest") (O.weakest old subset)
              (S.weakest lat subset)
          done)
        [ (4, 1); (3, 2) ])
    [ (5, 2); (3, 1) ];
  Alcotest.(check (list string)) "queries answered differently" []
    (List.rev !mismatches)

let tests =
  [
    Alcotest.test_case "lattice positive edges" `Slow lattice_positive;
    Alcotest.test_case "lattice refuted edges" `Slow lattice_negative;
    Alcotest.test_case "item 6 equivalence" `Slow detector_s_equals_wait_free_omission;
    Alcotest.test_case "sampled checks" `Quick sampled_agrees_with_exhaustive;
    Alcotest.test_case "model generators" `Quick model_generators_match_their_predicates;
    Alcotest.test_case "pinned counterexample" `Quick pinned_counterexample;
    Alcotest.test_case "lattice vs check_exhaustive" `Slow
      lattice_agrees_with_check_exhaustive;
    Alcotest.test_case "lattice neighbours" `Slow lattice_neighbours;
    Alcotest.test_case "lattice meet and frontier" `Slow
      lattice_meet_and_frontier;
    Alcotest.test_case "renaming refutes an asymmetric predicate" `Quick
      asymmetric_predicate_is_caught;
    Alcotest.test_case "lattice walks one history per orbit" `Slow
      lattice_walks_one_history_per_orbit;
    Alcotest.test_case "lattice = per-history walk" `Slow
      lattice_matches_per_history_walk;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        reflexivity_property;
        transitivity_property;
        vocabulary_is_renaming_invariant;
      ]
