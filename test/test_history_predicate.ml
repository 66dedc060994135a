(* Tests for Fault_history and the paper's named predicates. *)

module Pset = Rrfd.Pset
module H = Rrfd.Fault_history
module P = Rrfd.Predicate

let s = Pset.of_list

let history n rounds = H.of_rounds ~n (List.map Array.of_list rounds)

let holds p h = Alcotest.(check bool) (P.name p) true (Rrfd.Predicate.holds p h)

let fails p h reason =
  Alcotest.(check bool) reason false (Rrfd.Predicate.holds p h)

let history_accessors () =
  let h = history 3 [ [ s [ 1 ]; s []; s [ 0; 1 ] ]; [ s []; s [ 2 ]; s [] ] ] in
  Alcotest.(check int) "rounds" 2 (H.rounds h);
  Alcotest.(check int) "n" 3 (H.n h);
  Alcotest.(check bool) "d access" true (Pset.equal (H.d h ~proc:0 ~round:1) (s [ 1 ]));
  Alcotest.(check bool) "round union" true
    (Pset.equal (H.round_union h ~round:1) (s [ 0; 1 ]));
  Alcotest.(check bool) "round inter" true
    (Pset.equal (H.round_inter h ~round:1) Pset.empty);
  Alcotest.(check bool) "cumulative" true
    (Pset.equal (H.cumulative_union h) (s [ 0; 1; 2 ]));
  Alcotest.(check bool) "cumulative upto 1" true
    (Pset.equal (H.cumulative_union_upto h ~round:1) (s [ 0; 1 ]));
  Alcotest.check_raises "bad round"
    (Invalid_argument "Fault_history: round out of range") (fun () ->
      ignore (H.round_union h ~round:3))

let omission_pred () =
  let p = P.omission ~f:1 in
  holds p (history 3 [ [ s [ 2 ]; s []; s [] ] ]);
  holds p (history 3 [ [ s [ 2 ]; s [ 2 ]; s [] ]; [ s []; s [ 2 ]; s [] ] ]);
  fails p
    (history 3 [ [ s [ 1 ]; s []; s [] ]; [ s [ 2 ]; s []; s [] ] ])
    "two distinct faulty senders exceed f=1";
  fails p (history 3 [ [ s []; s []; s [ 2 ] ] ]) "self-suspicion";
  (* f bounds the *cumulative union*, not per-round sizes. *)
  holds (P.omission ~f:2) (history 3 [ [ s [ 1; 2 ]; s []; s [] ] ])

let crash_pred () =
  let p = P.crash ~f:2 in
  (* p2 crashes at round 1, partially missed, then missed by all. *)
  holds p
    (history 3 [ [ s [ 2 ]; s []; s [] ]; [ s [ 2 ]; s [ 2 ]; s [] ] ]);
  (* closure violated: p2 missed at round 1 but received by p1 at round 2
     without p1 missing it. *)
  fails p
    (history 3 [ [ s [ 2 ]; s []; s [] ]; [ s [ 2 ]; s []; s [] ] ])
    "crash closure violated";
  (* the crashed process itself is exempt from suspecting itself *)
  holds p
    (history 3 [ [ s [ 2 ]; s [ 2 ]; s [] ]; [ s [ 2 ]; s [ 2 ]; s [] ] ])

let async_pred () =
  let p = P.async_resilient ~f:1 in
  holds p (history 3 [ [ s [ 0 ]; s [ 2 ]; s [ 1 ] ] ]);
  fails p (history 3 [ [ s [ 0; 1 ]; s []; s [] ] ]) "fault set too big";
  (* unlike omission, different processes may be missed every round *)
  holds p (history 3 [ [ s [ 0 ]; s []; s [] ]; [ s [ 1 ]; s []; s [] ] ])

let async_mixed_pred () =
  let p = P.async_mixed ~f:1 ~t:2 in
  (* one process misses 2 (inside Q), others at most 1 *)
  holds p (history 4 [ [ s [ 1; 2 ]; s [ 0 ]; s []; s [ 3 ] ] ]);
  (* three processes missing 2 exceeds |Q| ≤ 2 *)
  fails p
    (history 4 [ [ s [ 1; 2 ]; s [ 0; 2 ]; s [ 0; 1 ]; s [] ] ])
    "too many weak processes";
  fails p
    (history 4 [ [ s [ 1; 2; 3 ]; s []; s []; s [] ] ])
    "weak process missing more than t"

let shm_pred () =
  let p = P.shared_memory ~f:2 in
  holds p (history 3 [ [ s [ 1 ]; s [ 0 ]; s [ 0 ] ] ]);
  (* everyone suspected by someone *)
  fails p
    (history 3 [ [ s [ 1 ]; s [ 2 ]; s [ 0 ] ] ])
    "no process seen by all"

let antisym_pred () =
  holds P.antisymmetric_misses (history 3 [ [ s [ 1 ]; s [ 2 ]; s [ 0 ] ] ]);
  fails P.antisymmetric_misses
    (history 3 [ [ s [ 1 ]; s [ 0 ]; s [] ] ])
    "mutual suspicion"

let snapshot_pred () =
  let p = P.snapshot ~f:2 in
  (* comparable chain ∅ ⊆ {2} ⊆ {1,2}: needs |D| ≤ f and no self *)
  holds p (history 3 [ [ s [ 1; 2 ]; s [ 2 ]; s [] ] ]);
  fails p
    (history 3 [ [ s [ 1 ]; s [ 2 ]; s [] ] ])
    "incomparable fault sets";
  fails p (history 3 [ [ s [ 0 ]; s []; s [] ] ]) "self-suspicion"

let detector_s_pred () =
  holds P.detector_s
    (history 3 [ [ s [ 1 ]; s [ 1 ]; s [ 1 ] ]; [ s [ 0 ]; s []; s [] ] ]);
  fails P.detector_s
    (history 3 [ [ s [ 1 ]; s [ 2 ]; s [ 0 ] ] ])
    "every process eventually suspected"

let k_set_pred () =
  let p1 = P.k_set ~k:1 in
  holds p1 (history 3 [ [ s [ 2 ]; s [ 2 ]; s [ 2 ] ] ]);
  fails p1
    (history 3 [ [ s [ 2 ]; s []; s [] ] ])
    "k=1 forbids any disagreement";
  let p2 = P.k_set ~k:2 in
  holds p2 (history 3 [ [ s [ 2 ]; s []; s [] ] ]);
  fails p2
    (history 3 [ [ s [ 1; 2 ]; s []; s [] ] ])
    "uncertainty of 2 breaks k=2"

let identical_pred () =
  holds P.identical_views (history 3 [ [ s [ 1 ]; s [ 1 ]; s [ 1 ] ] ]);
  fails P.identical_views
    (history 3 [ [ s [ 1 ]; s [ 1 ]; s [] ] ])
    "views differ"

(* Surgery operations (what the lib/check shrinker is built on). *)

let history_t = Test_support.history_t

let surgery_update () =
  let h = history 3 [ [ s [ 1 ]; s []; s [ 0; 1 ] ]; [ s []; s [ 2 ]; s [] ] ] in
  let h' = H.update h ~round:1 ~proc:2 (s [ 0 ]) in
  Alcotest.(check Test_support.pset_t) "slot replaced" (s [ 0 ])
    (H.d h' ~proc:2 ~round:1);
  Alcotest.(check Test_support.pset_t) "other slots untouched" (s [ 2 ])
    (H.d h' ~proc:1 ~round:2);
  Alcotest.(check history_t) "original unchanged"
    (history 3 [ [ s [ 1 ]; s []; s [ 0; 1 ] ]; [ s []; s [ 2 ]; s [] ] ])
    h

let surgery_drop_round () =
  let h = history 3 [ [ s [ 1 ]; s []; s [] ]; [ s []; s [ 2 ]; s [] ] ] in
  Alcotest.(check history_t) "drop first round"
    (history 3 [ [ s []; s [ 2 ]; s [] ] ])
    (H.drop_round h ~round:1);
  Alcotest.(check history_t) "drop last round"
    (history 3 [ [ s [ 1 ]; s []; s [] ] ])
    (H.drop_round h ~round:2)

let surgery_truncate () =
  let h = history 3 [ [ s [ 1 ]; s []; s [] ]; [ s []; s [ 2 ]; s [] ] ] in
  Alcotest.(check history_t) "truncate to 1"
    (history 3 [ [ s [ 1 ]; s []; s [] ] ])
    (H.truncate h ~rounds:1);
  Alcotest.(check history_t) "truncate to 0" (H.empty ~n:3)
    (H.truncate h ~rounds:0);
  Alcotest.(check history_t) "truncate to full length is identity" h
    (H.truncate h ~rounds:2)

let surgery_remove_proc () =
  (* Removing p1 from {p0,p1,p2}: ids above shift down, sets renumber. *)
  let h = history 3 [ [ s [ 1 ]; s [ 2 ]; s [ 0; 1 ] ] ] in
  Alcotest.(check history_t) "p1 removed, p2 becomes p1"
    (history 2 [ [ s []; s [ 0 ] ] ])
    (H.remove_proc h ~proc:1);
  Alcotest.check_raises "cannot remove the last process"
    (Invalid_argument "Fault_history.remove_proc: need n > 1") (fun () ->
      ignore (H.remove_proc (H.empty ~n:1) ~proc:0))

(* The same surgery ops on a wide universe (n = 70 crosses the Pset
   word boundary, so every per-round set is multi-word). *)
let surgery_wide () =
  let n = 70 in
  let faulty = s [ 61; 62; 63; 69 ] in
  let round = Array.init n (fun p -> if p = 69 then Pset.empty else faulty) in
  let h = H.of_rounds ~n [ round; round ] in
  Alcotest.(check int) "n" n (H.n h);
  Alcotest.(check Test_support.pset_t) "round union" faulty
    (H.round_union h ~round:1);
  let h' = H.update h ~round:2 ~proc:0 (s [ 65 ]) in
  Alcotest.(check Test_support.pset_t) "updated slot" (s [ 65 ])
    (H.d h' ~proc:0 ~round:2);
  Alcotest.(check Test_support.pset_t) "cumulative union picks it up"
    (Pset.add 65 faulty) (H.cumulative_union h');
  Alcotest.(check history_t) "drop then truncate agree"
    (H.drop_round h ~round:2) (H.truncate h ~rounds:1);
  (* Removing p63 renumbers everything above it down by one. *)
  let r = H.remove_proc h ~proc:63 in
  Alcotest.(check int) "n after remove" (n - 1) (H.n r);
  Alcotest.(check Test_support.pset_t) "sets renumber across the boundary"
    (s [ 61; 62; 68 ])
    (H.d r ~proc:0 ~round:1);
  Alcotest.(check bool) "codec round-trips wide" true
    (H.equal h (H.of_string_compact (H.to_string_compact h)))

let compact_roundtrip =
  QCheck.Test.make ~name:"to_string_compact/of_string_compact round-trip"
    ~count:500
    (Test_support.history_arb ~min_n:1 ~max_n:6 ())
    (fun h -> H.equal h (H.of_string_compact (H.to_string_compact h)))

let contains haystack needle =
  let lh = String.length haystack and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub haystack i ln = needle || go (i + 1)) in
  go 0

let explain_names_round () =
  let h = history 3 [ [ s []; s []; s [] ]; [ s [ 0; 1 ]; s []; s [] ] ] in
  match Rrfd.Predicate.explain (P.async_resilient ~f:1) h with
  | Some msg ->
    Alcotest.(check bool) "mentions round 2" true (contains msg "2")
  | None -> Alcotest.fail "expected a violation"

(* {1 Verdict against explanation}

   [holds] decides without formatting; [explain] reports.  They must
   agree on every history, for every predicate of the spec vocabulary
   and any conjunction or disjunction of them. *)

type shape = Leaf of string | Conj of shape * shape | Disj of shape * shape

let rec shape_name = function
  | Leaf spec -> spec
  | Conj (a, b) -> Printf.sprintf "(%s & %s)" (shape_name a) (shape_name b)
  | Disj (a, b) -> Printf.sprintf "(%s | %s)" (shape_name a) (shape_name b)

let rec predicate_of_shape = function
  | Leaf spec -> Test_support.ok_exn (Check.Spec.predicate spec)
  | Conj (a, b) -> P.conj (predicate_of_shape a) (predicate_of_shape b)
  | Disj (a, b) -> P.disj (predicate_of_shape a) (predicate_of_shape b)

(* Every name Check.Spec parses, parameters drawn from 0..n+1. *)
let leaf_gen ~n =
  let open QCheck.Gen in
  let k = int_bound (n + 1) in
  let with_param name key = map (Printf.sprintf "%s:%s=%d" name key) in
  oneof
    [
      oneofl
        [
          "true"; "no-self"; "not-all-faulty"; "crash-closure"; "someone-seen";
          "antisym"; "eq5"; "detector-s";
        ];
      (oneofl [ "omission"; "crash"; "async"; "shm"; "shm-alt"; "snapshot";
                "byz-round" ]
       >>= fun name -> with_param name "f" k);
      with_param "kset" "k" k;
      with_param "honest-kernel" "k" k;
      map2 (Printf.sprintf "async-mixed:f=%d,t=%d") k k;
    ]

let rec shape_gen ~n depth =
  let open QCheck.Gen in
  let leaf = map (fun spec -> Leaf spec) (leaf_gen ~n) in
  if depth = 0 then leaf
  else
    let sub = shape_gen ~n (depth - 1) in
    frequency
      [
        (3, leaf);
        (1, map2 (fun a b -> Conj (a, b)) sub sub);
        (1, map2 (fun a b -> Disj (a, b)) sub sub);
      ]

(* Cells are empty, the whole system, or a random subset at a per-history
   density, so both verdicts are common.  Self-suspicion is allowed. *)
let verdict_history_gen ~n =
  let open QCheck.Gen in
  oneofl [ 0.05; 0.2; 0.5; 0.9 ] >>= fun density ->
  let subset =
    list_repeat n (float_bound_exclusive 1.0) >|= fun coins ->
    snd
      (List.fold_left
         (fun (i, acc) c -> (i + 1, if c < density then Pset.add i acc else acc))
         (0, Pset.empty) coins)
  in
  let cell =
    frequency [ (3, return Pset.empty); (1, return (Pset.full n)); (6, subset) ]
  in
  int_bound 4 >>= fun rounds ->
  list_repeat rounds (list_repeat n cell >|= Array.of_list) >|= H.of_rounds ~n

let verdict_matches_explanation =
  QCheck.Test.make ~name:"holds p h = (explain p h = None)" ~count:2000
    (QCheck.make
       ~print:(fun (shape, h) ->
         Printf.sprintf "%s on %s" (shape_name shape) (H.to_string_compact h))
       QCheck.Gen.(
         frequency [ (8, int_range 1 8); (1, return 70) ] >>= fun n ->
         pair (shape_gen ~n 2) (verdict_history_gen ~n)))
    (fun (shape, h) ->
      let p = predicate_of_shape shape in
      P.holds p h = (P.explain p h = None))

let tests =
  [
    Alcotest.test_case "history accessors" `Quick history_accessors;
    Alcotest.test_case "omission" `Quick omission_pred;
    Alcotest.test_case "crash" `Quick crash_pred;
    Alcotest.test_case "async" `Quick async_pred;
    Alcotest.test_case "async mixed" `Quick async_mixed_pred;
    Alcotest.test_case "shared memory" `Quick shm_pred;
    Alcotest.test_case "antisymmetric" `Quick antisym_pred;
    Alcotest.test_case "snapshot" `Quick snapshot_pred;
    Alcotest.test_case "detector S" `Quick detector_s_pred;
    Alcotest.test_case "k-set" `Quick k_set_pred;
    Alcotest.test_case "identical views" `Quick identical_pred;
    Alcotest.test_case "explain names round" `Quick explain_names_round;
    Alcotest.test_case "surgery: update" `Quick surgery_update;
    Alcotest.test_case "surgery: drop_round" `Quick surgery_drop_round;
    Alcotest.test_case "surgery: truncate" `Quick surgery_truncate;
    Alcotest.test_case "surgery: remove_proc" `Quick surgery_remove_proc;
    Alcotest.test_case "surgery: wide universe" `Quick surgery_wide;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ compact_roundtrip; verdict_matches_explanation ]
