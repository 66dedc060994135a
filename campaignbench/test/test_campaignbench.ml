(* Tests of the campaign benchmark's own rules: the percentile it reports,
   the attribution arithmetic, determinism of the exact counters, and that
   a wrong answer is a failed op.  The workloads run at tiny sizes. *)

module W = Campaignbench.Workload
module Stats = Campaignbench.Stats
module Span = Campaignbench.Span

let float_eq = Alcotest.float 1e-9

let test_rank () =
  Alcotest.(check int) "p99 of 1000 is the 990th" 990 (Stats.rank ~n:1000 ~pct:99);
  Alcotest.(check int) "ten beyond it" 10 (Stats.beyond ~n:1000 ~pct:99);
  Alcotest.(check bool) "1000 samples support p99" true
    (Stats.supported ~n:1000 ~pct:99);
  Alcotest.(check bool) "999 do not" false (Stats.supported ~n:999 ~pct:99);
  Alcotest.(check int) "median of 5 is the 3rd" 3 (Stats.rank ~n:5 ~pct:50);
  Alcotest.(check int) "p1 of 1 is the 1st" 1 (Stats.rank ~n:1 ~pct:1)

let test_percentile () =
  let xs = Array.init 100 (fun i -> float_of_int (100 - i)) in
  Alcotest.check float_eq "p50" 50. (Stats.percentile xs ~pct:50);
  Alcotest.check float_eq "p99" 99. (Stats.percentile xs ~pct:99);
  Alcotest.check float_eq "p100 is the max" 100. (Stats.percentile xs ~pct:100);
  Alcotest.check float_eq "input untouched" 100. xs.(0)

let test_workloads_support_p99 () =
  List.iter
    (fun (w : W.t) ->
      Alcotest.(check bool) (w.name ^ " has ten samples beyond p99") true
        (Stats.supported ~n:w.ops ~pct:99))
    W.all

let test_batch_rates () =
  let latencies_ns = [| 1e9; 1e9; 2e9; 2e9 |] and units = [| 10; 10; 10; 30 |] in
  let r = Stats.batch_rates ~batches:2 ~latencies_ns ~units in
  Alcotest.check float_eq "first batch" 10. r.(0);
  Alcotest.check float_eq "second batch" 10. r.(1)

let test_attribution () =
  let a =
    Stats.attribute ~span_ns:50.
      [
        { Stats.layer = "a"; cost_ns = 10.; count = 2. };
        { Stats.layer = "b"; cost_ns = 5.; count = 4. };
      ]
  in
  Alcotest.check float_eq "sum of cost x count" 40. a.sum_ns;
  Alcotest.check float_eq "residual" 10. a.residual_ns;
  Alcotest.check float_eq "residual share" 0.2 a.residual_share;
  let over = Stats.attribute ~span_ns:30. a.terms in
  Alcotest.check float_eq "negative residual" (-10.) over.residual_ns

let tiny =
  [
    ("check-phased", W.check_phased ~trials:8 ());
    ("derive-lossy", W.derive_lossy ~observe:12 ~certify:12 ());
    ("ct-n64", W.ct_n64 ~n:8 ());
  ]

let run_ops (rn : W.runner) ~seed =
  let c = W.fresh () in
  let outs = Array.init 2 (fun i -> rn.run c ~seed i) in
  (c, outs)

let test_identical_counters () =
  List.iter
    (fun (name, prepare) ->
      let c1, o1 = run_ops (prepare ()) ~seed:7 in
      let c2, o2 = run_ops (prepare ()) ~seed:7 in
      Alcotest.(check bool) (name ^ " ops correct") true
        (Array.for_all (fun (o : W.op) -> o.ok) o1);
      Alcotest.(check bool) (name ^ " counters identical") true (c1 = c2);
      Alcotest.(check bool) (name ^ " outputs identical") true (o1 = o2);
      let _, o3 = run_ops (prepare ()) ~seed:8 in
      Alcotest.(check bool) (name ^ " another seed, another digest") true
        (o3.(1).digest <> o1.(1).digest))
    tiny

let test_traced_reproduces () =
  List.iter
    (fun (name, prepare) ->
      let rn : W.runner = prepare () in
      let cu = W.fresh () and ct = W.fresh () in
      let span = Span.create () in
      for i = 0 to 1 do
        let u = rn.run cu ~seed:3 i and t = rn.traced span ct ~seed:3 i in
        Alcotest.(check bool)
          (Printf.sprintf "%s op %d traced = untraced" name i)
          true (W.agree u t).ok
      done;
      Alcotest.(check bool) (name ^ " spans recorded") true
        (Span.root_total span > 0.))
    tiny

let test_wrong_answer_fails () =
  let check_env =
    let env = W.Check_phased.setup ~trials:8 () in
    let refuted = Check.Property.make ~name:"refuted" ~doc:"injected" (fun _ -> Some "injected") in
    { env with W.Check_phased.props = [ refuted ] }
  in
  let ct_env = { (W.Ct_n64.setup ~n:8 ()) with W.Ct_n64.expect = [] } in
  let wrong =
    [
      ( "check-phased",
        fun () ->
          { W.run = W.Check_phased.op check_env; traced = W.Check_phased.traced check_env } );
      ("derive-lossy", W.derive_lossy ~observe:12 ~certify:12 ~expect:[ "async:f=1" ] ());
      ("ct-n64", fun () -> { W.run = W.Ct_n64.op ct_env; traced = W.Ct_n64.traced ct_env });
    ]
  in
  List.iter
    (fun (name, prepare) ->
      let rn : W.runner = prepare () in
      let _, outs = run_ops rn ~seed:7 in
      Alcotest.(check bool) (name ^ " every op failed") true
        (Array.for_all (fun (o : W.op) -> not o.ok) outs);
      let t = rn.traced Span.null (W.fresh ()) ~seed:7 0 in
      Alcotest.(check bool) (name ^ " traced op failed") false t.ok)
    wrong;
  let rn = W.ct_n64 ~n:8 () () in
  let o = rn.run (W.fresh ()) ~seed:7 0 in
  Alcotest.(check bool) "agreeing runs pass" true (W.agree o o).ok;
  Alcotest.(check bool) "a wrong run fails" false (W.agree o { o with ok = false }).ok;
  Alcotest.(check bool) "disagreeing runs fail" false
    (W.agree o { o with digest = o.digest + 1 }).ok

let () =
  Alcotest.run "campaignbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest rank" `Quick test_rank;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "workloads support p99" `Quick
            test_workloads_support_p99;
          Alcotest.test_case "batch rates" `Quick test_batch_rates;
          Alcotest.test_case "attribution" `Quick test_attribution;
        ] );
      ( "workloads",
        [
          Alcotest.test_case "identical counters" `Quick test_identical_counters;
          Alcotest.test_case "traced reproduces untraced" `Quick
            test_traced_reproduces;
          Alcotest.test_case "wrong answer fails" `Quick test_wrong_answer_fails;
        ] );
    ]
