(* The campaign runtime: Stats fixtures, Pool scheduling, and the
   determinism contract (same seed => same table at every -j). *)

module Pool = Runtime.Pool
module Campaign = Runtime.Campaign
module Stats = Runtime.Stats

let feq msg expected actual = Alcotest.(check (float 1e-9)) msg expected actual

let stats_empty () =
  let s = Stats.of_array [||] in
  Alcotest.(check int) "count" 0 s.Stats.count;
  Alcotest.(check bool) "mean nan" true (Float.is_nan s.Stats.mean);
  Alcotest.(check bool) "stddev nan" true (Float.is_nan s.Stats.stddev);
  Alcotest.(check bool) "min nan" true (Float.is_nan s.Stats.min);
  Alcotest.(check bool) "max nan" true (Float.is_nan s.Stats.max);
  Alcotest.(check string) "printed" "n=0" (Format.asprintf "%a" Stats.pp s)

let stats_singleton () =
  let s = Stats.of_array [| 5.0 |] in
  Alcotest.(check int) "count" 1 s.Stats.count;
  feq "mean" 5.0 s.Stats.mean;
  feq "stddev" 0.0 s.Stats.stddev;
  feq "min" 5.0 s.Stats.min;
  feq "max" 5.0 s.Stats.max;
  Alcotest.(check string) "printed, zero half-width"
    "5 ± 0 (n=1, sd=0, min=5, max=5)" (Format.asprintf "%a" Stats.pp s)

let stats_fixture () =
  (* Hand-computed: mean 5, sum of squared deviations 32, sample variance
     32/7, stddev sqrt(32/7) ≈ 2.13809. *)
  let s = Stats.of_array [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  Alcotest.(check int) "count" 8 s.Stats.count;
  feq "mean" 5.0 s.Stats.mean;
  feq "stddev" (sqrt (32.0 /. 7.0)) s.Stats.stddev;
  feq "min" 2.0 s.Stats.min;
  feq "max" 9.0 s.Stats.max;
  (* 95% half-width 1.96 · sqrt(32/7) / sqrt 8 ≈ 1.4816. *)
  Alcotest.(check string) "printed with the 95% half-width"
    "5 ± 1.5 (n=8, sd=2.1, min=2, max=9)" (Format.asprintf "%a" Stats.pp s)

let stats_of_ints () =
  let s = Stats.of_ints [| 1; 2; 3 |] in
  feq "mean" 2.0 s.Stats.mean;
  feq "stddev" 1.0 s.Stats.stddev

let pool_matches_serial () =
  let f i = (i * i) - (3 * i) in
  List.iter
    (fun jobs ->
      List.iter
        (fun n ->
          Alcotest.(check (array int))
            (Printf.sprintf "jobs=%d n=%d" jobs n)
            (Array.init n f)
            (Pool.map_range ~jobs ~n f))
        [ 0; 1; 5; 1000 ])
    [ 1; 2; 4; 7 ]

let pool_propagates_exception () =
  Alcotest.check_raises "worker failure surfaces" (Failure "boom") (fun () ->
      ignore
        (Pool.map_range ~jobs:4 ~n:100 (fun i ->
             if i = 37 then failwith "boom" else i)))

let campaign_jobs_invariant () =
  let observe ~trial ~rng =
    (* Consume a trial-dependent amount of randomness to catch any stream
       sharing between trials. *)
    let draws = 1 + (trial mod 5) in
    let acc = ref 0 in
    for _ = 1 to draws do
      acc := !acc + Dsim.Rng.int rng 1000
    done;
    !acc
  in
  let reference = Campaign.run ~jobs:1 ~seed:42 ~trials:200 observe in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "jobs=%d equals serial" jobs)
        reference
        (Campaign.run ~jobs ~seed:42 ~trials:200 observe))
    [ 2; 4; 8 ]

let campaign_map_keeps_order () =
  let items = [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] in
  let tagged =
    Campaign.map ~jobs:4 ~seed:7 items (fun ~index ~rng:_ s ->
        Printf.sprintf "%d:%s" index s)
  in
  Alcotest.(check (list string))
    "order preserved"
    [ "0:a"; "1:b"; "2:c"; "3:d"; "4:e"; "5:f"; "6:g" ]
    tagged

(* Pool.search determinism under contention.  Dense hits make many workers
   race the best-index CAS loop at once; whatever interleaving the
   scheduler produces, the answer must be the serial one — the hit with
   the smallest index.  Repeated because a CAS livelock or lost update is
   a some-interleavings bug, not an every-run bug. *)
let pool_search_contended () =
  let n = 4096 in
  for round = 1 to 40 do
    (* every third index hits: thousands of concurrent lower_best calls *)
    let dense i = if i mod 3 = 0 then Some (i * 10) else None in
    Alcotest.(check (option int))
      (Printf.sprintf "dense hits, round %d" round)
      (Some 0)
      (Pool.search ~jobs:8 ~n dense);
    (* first hit deep inside a late chunk: early workers race past it *)
    let sparse i = if i >= 2000 then Some i else None in
    Alcotest.(check (option int))
      (Printf.sprintf "sparse hits, round %d" round)
      (Some 2000)
      (Pool.search ~jobs:8 ~n sparse)
  done;
  Alcotest.(check (option int)) "no hits" None
    (Pool.search ~jobs:8 ~n (fun _ -> None))

(* The end-to-end contract of the tentpole: a campaign-backed experiment
   renders the same table at -j 1 and -j 4 for the same seed. *)
let table_testable =
  Alcotest.testable
    (fun ppf t -> Format.fprintf ppf "table %s" t.Experiments.Table.id)
    ( = )

let registry_deterministic_across_jobs () =
  List.iter
    (fun id ->
      match Experiments.Registry.find id with
      | None -> Alcotest.failf "%s not registered" id
      | Some e ->
        let run jobs =
          fst
            (e.Experiments.Registry.run ~seed:0 ~trials:(Some 40)
               ~jobs:(Some jobs))
        in
        Alcotest.check table_testable
          (id ^ ": -j 1 = -j 4")
          (run 1) (run 4))
    [ "E6"; "E9"; "E11"; "E14" ]

let tests =
  [
    Alcotest.test_case "stats empty" `Quick stats_empty;
    Alcotest.test_case "stats singleton" `Quick stats_singleton;
    Alcotest.test_case "stats fixture" `Quick stats_fixture;
    Alcotest.test_case "stats of ints" `Quick stats_of_ints;
    Alcotest.test_case "pool matches serial" `Quick pool_matches_serial;
    Alcotest.test_case "pool propagates exception" `Quick
      pool_propagates_exception;
    Alcotest.test_case "campaign invariant under -j" `Quick
      campaign_jobs_invariant;
    Alcotest.test_case "campaign map keeps order" `Quick
      campaign_map_keeps_order;
    Alcotest.test_case "pool search deterministic under contention" `Quick
      pool_search_contended;
    Alcotest.test_case "registry tables deterministic across jobs" `Slow
      registry_deterministic_across_jobs;
  ]
