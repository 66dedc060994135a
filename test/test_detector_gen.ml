(* Property tests: every constructive generator satisfies its predicate.

   Each QCheck case draws a seed (and size parameters), materialises a
   multi-round history from the generated detector, and checks the
   corresponding predicate — the engine-independent core of experiments
   E1–E6. *)

module P = Rrfd.Predicate
module D = Rrfd.Detector
module G = Rrfd.Detector_gen

let materialise detector ~n ~rounds =
  let rec go h r =
    if r > rounds then h
    else go (Rrfd.Fault_history.append h (D.next detector h)) (r + 1)
  in
  go (Rrfd.Fault_history.empty ~n) 1

let gen_case name make_detector make_predicate =
  let open QCheck in
  Test.make ~name ~count:200
    (triple
       (Test_support.int_range 2 10)
       (int_bound 1000)
       (Test_support.int_range 1 6))
    (fun (n, seed, rounds) ->
      let rng = Dsim.Rng.create seed in
      let f = if n > 1 then (seed mod (n - 1)) + 0 else 0 in
      let f = max 0 (min f (n - 1)) in
      let detector = make_detector rng ~n ~f in
      let history = materialise detector ~n ~rounds in
      match Rrfd.Predicate.explain (make_predicate ~f) history with
      | None -> true
      | Some reason -> Test.fail_reportf "n=%d f=%d: %s" n f reason)

let props =
  [
    gen_case "omission generator satisfies omission predicate"
      (fun rng ~n ~f -> G.omission rng ~n ~f)
      (fun ~f -> P.omission ~f);
    gen_case "crash generator satisfies crash predicate"
      (fun rng ~n ~f -> G.crash rng ~n ~f)
      (fun ~f -> P.crash ~f);
    gen_case "async generator satisfies async predicate"
      (fun rng ~n ~f -> G.async rng ~n ~f)
      (fun ~f -> P.async_resilient ~f);
    gen_case "shm generator satisfies shm predicate"
      (fun rng ~n ~f -> G.shared_memory rng ~n ~f)
      (fun ~f -> P.shared_memory ~f);
    gen_case "iis generator satisfies snapshot predicate"
      (fun rng ~n ~f -> G.iis rng ~n ~f)
      (fun ~f -> P.snapshot ~f);
    gen_case "mixed generator satisfies mixed predicate"
      (fun rng ~n ~f -> G.async_mixed rng ~n ~f ~t:(max f (min (n - 1) (f + 1))))
      (fun ~f:_ -> P.always);
    gen_case "detector-S generator satisfies detector-S predicate"
      (fun rng ~n ~f:_ -> G.detector_s rng ~n)
      (fun ~f:_ -> P.detector_s);
    gen_case "identical generator satisfies equation 5"
      (fun rng ~n ~f:_ -> G.identical rng ~n)
      (fun ~f:_ -> P.identical_views);
  ]

let mixed_really_mixed =
  QCheck.Test.make ~name:"mixed generator satisfies its own predicate" ~count:200
    QCheck.(
      triple (Test_support.int_range 3 10) (int_bound 1000)
        (Test_support.int_range 1 5))
    (fun (n, seed, rounds) ->
      let rng = Dsim.Rng.create seed in
      let f = seed mod (n - 1) in
      let t = max f (min (n - 1) (f + 1)) in
      let detector = Rrfd.Detector_gen.async_mixed rng ~n ~f ~t in
      let history = materialise detector ~n ~rounds in
      Rrfd.Predicate.holds (P.async_mixed ~f ~t) history)

let kset_generator =
  QCheck.Test.make ~name:"k-set generator satisfies k-set predicate" ~count:200
    QCheck.(
      triple (Test_support.int_range 2 12) (int_bound 1000)
        (Test_support.int_range 1 5))
    (fun (n, seed, rounds) ->
      let rng = Dsim.Rng.create seed in
      let k = 1 + (seed mod n) in
      let detector = G.k_set rng ~n ~k in
      let history = materialise detector ~n ~rounds in
      Rrfd.Predicate.holds (P.k_set ~k) history)

let schedule_detector () =
  let s = Rrfd.Pset.of_list in
  let d1 = [| s [ 1 ]; s []; s [] |] and d2 = [| s []; s [ 0 ]; s [] |] in
  let det = D.of_schedule [ d1; d2 ] in
  let h = materialise det ~n:3 ~rounds:3 in
  Alcotest.(check bool) "round 1 replayed" true
    (Rrfd.Pset.equal (Rrfd.Fault_history.d h ~proc:0 ~round:1) (s [ 1 ]));
  Alcotest.(check bool) "round 2 replayed" true
    (Rrfd.Pset.equal (Rrfd.Fault_history.d h ~proc:1 ~round:2) (s [ 0 ]));
  Alcotest.(check bool) "after repeats last" true
    (Rrfd.Pset.equal (Rrfd.Fault_history.d h ~proc:1 ~round:3) (s [ 0 ]))

let none_detector () =
  let h = materialise D.none ~n:4 ~rounds:3 in
  Alcotest.(check bool) "no faults ever" true
    (Rrfd.Pset.is_empty (Rrfd.Fault_history.cumulative_union h))

let tests =
  [
    Alcotest.test_case "schedule detector" `Quick schedule_detector;
    Alcotest.test_case "failure-free detector" `Quick none_detector;
  ]
  @ List.map QCheck_alcotest.to_alcotest (props @ [ mixed_really_mixed; kset_generator ])
