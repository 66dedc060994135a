(* Benchmark harness.

   Two parts, both printed on every run:

   1. The experiment tables E1-E19 — one per claim of the paper (the paper
      has no numeric tables of its own; these are its theorems rendered as
      measurable artifacts).  Trial counts are reduced here to keep the
      harness quick; `rrfd-experiments all` runs the full versions.
   2. Bechamel micro-benchmarks of the building blocks (one Test.make per
      subsystem), reporting estimated time per operation.

   Telemetry: `--json PATH` additionally writes everything measured as a
   BENCH json (schema in lib/report and README.md); `--check BASELINE
   [--tolerance PCT]` compares the fresh run against a saved report and
   exits non-zero on a timing regression beyond tolerance or a table that
   was passing in the baseline and fails now.  `--trials`,
   `--speedup-trials` and `--quota` shrink the run for CI smoke jobs. *)

(* The raw OS monotonic clock (ns since an arbitrary origin).  Bound before
   the opens: Toolkit exports a measure module of the same name. *)
module Mclock = Monotonic_clock

open Bechamel
open Toolkit

let seed = 0

(* CLI ---------------------------------------------------------------- *)

let json_path = ref None
let check_path = ref None
let tolerance = ref 50.0
let table_trials = ref 50
let speedup_trials = ref 1500
let quota = ref 0.25

let () =
  let spec =
    [
      ( "--json",
        Arg.String (fun p -> json_path := Some p),
        "PATH  write the run's telemetry as BENCH json (PATH `auto` names \
         it BENCH_<shortsha>.json)" );
      ( "--check",
        Arg.String (fun p -> check_path := Some p),
        "BASELINE.json  compare this run against a saved report; exit \
         non-zero on regression" );
      ( "--tolerance",
        Arg.Set_float tolerance,
        "PCT  allowed ns/run slowdown before --check fails (default 50)" );
      ( "--trials",
        Arg.Set_int table_trials,
        "N  per-configuration trial count for the experiment tables \
         (default 50)" );
      ( "--speedup-trials",
        Arg.Set_int speedup_trials,
        "N  E6 trial count for the serial-vs-parallel check (default 1500)" );
      ( "--quota",
        Arg.Set_float quota,
        "SECS  bechamel time budget per subject (default 0.25)" );
    ]
  in
  Arg.parse spec
    (fun a -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" a)))
    "bench [--json PATH] [--check BASELINE.json] [--tolerance PCT] [--trials \
     N] [--speedup-trials N] [--quota SECS]"

(* Accurate per-run allocation measure.  Bechamel 0.5's own
   minor_allocated reads [Gc.quick_stat], which on OCaml 5 excludes the
   words allocated since the last minor collection — subjects that
   allocate less than a minor heap per sampling batch report 0.
   [Gc.minor_words] reads the domain's allocation pointer directly, so
   the OLS fit over it is exact down to a single word per run. *)
module Minor_words = struct
  type witness = unit

  let load () = ()
  let unload () = ()
  let make () = ()
  let get () = Gc.minor_words ()
  let label () = "minor-words"
  let unit () = "mnw"
end

let minor_words_instance =
  Measure.instance (module Minor_words) (Measure.register (module Minor_words))

(* -------------------------------------------------------------------- *)
(* Micro-benchmark subjects.                                             *)

(* The steady-state kernel subjects hoist everything reusable — inputs,
   algorithm, the (stateful) generator — out of the timed closure, so the
   number is the per-run cost of the engine loop plus one detector query,
   not of rebuilding the fixture. *)
let bench_engine_kset_round n =
  let rng = Dsim.Rng.create seed in
  let inputs = Tasks.Inputs.distinct n in
  let detector = Rrfd.Detector_gen.k_set rng ~n ~k:2 in
  let algorithm = Rrfd.Kset.one_round ~inputs in
  Staged.stage (fun () -> ignore (Rrfd.Engine.run ~n ~algorithm ~detector ()))

let bench_full_info_rounds n =
  let rng = Dsim.Rng.create seed in
  Staged.stage (fun () ->
      let inputs = Tasks.Inputs.distinct n in
      let detector = Rrfd.Detector_gen.async rng ~n ~f:((n - 1) / 2) in
      ignore
        (Rrfd.Engine.states_after ~n ~rounds:4
           ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
           ~detector ()))

let bench_immediate_snapshot n =
  let rng = Dsim.Rng.create seed in
  let schedule = Shm.Exec.Random (Dsim.Rng.split rng) in
  Staged.stage (fun () ->
      ignore (Shm.Immediate_snapshot.run_once ~n ~schedule))

let bench_adopt_commit_registers n =
  let rng = Dsim.Rng.create seed in
  Staged.stage (fun () ->
      let inputs = Tasks.Inputs.binary rng n in
      ignore
        (Shm.Adopt_commit_shm.run ~inputs
           ~schedule:(Shm.Exec.Random (Dsim.Rng.split rng))))

let bench_sim_crash_round n =
  let rng = Dsim.Rng.create seed in
  Staged.stage (fun () ->
      let inputs = Tasks.Inputs.distinct n in
      let sync = Syncnet.Flood.min_flood ~inputs ~horizon:2 in
      ignore
        (Rrfd.Engine.states_after ~n ~rounds:6
           ~algorithm:(Rrfd.Sim_crash.algorithm ~sync)
           ~detector:(Rrfd.Detector_gen.iis rng ~n ~f:1)
           ()))

let bench_two_step n =
  let rng = Dsim.Rng.create seed in
  Staged.stage (fun () ->
      let inputs = Tasks.Inputs.distinct n in
      ignore
        (Semisync.Two_step.run ~n ~inputs
           ~schedule:(Semisync.Machine.Random (Dsim.Rng.split rng))
           ()))

let bench_ring_baseline n =
  Staged.stage (fun () ->
      let inputs = Tasks.Inputs.distinct n in
      ignore
        (Semisync.Ring_baseline.run ~n ~inputs
           ~schedule:Semisync.Machine.Round_robin))

let bench_round_layer n =
  let counter = ref 0 in
  Staged.stage (fun () ->
      incr counter;
      let inputs = Tasks.Inputs.distinct n in
      ignore
        (Msgnet.Round_layer.run ~seed:!counter ~n ~f:((n - 1) / 2) ~rounds:3
           ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
           ()))

(* The round layer with the adversary and its repair protocol active: what
   fault injection costs on top of the clean path above. *)
let bench_faultnet_round_layer n =
  let counter = ref 0 in
  let adversary =
    match Msgnet.Adversary.of_spec "drop:p=20+dup:p=20" with
    | Ok a -> a
    | Error e -> failwith e
  in
  Staged.stage (fun () ->
      incr counter;
      let inputs = Tasks.Inputs.distinct n in
      ignore
        (Msgnet.Round_layer.run ~seed:!counter ~adversary ~n ~f:((n - 1) / 2)
           ~rounds:3
           ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
           ()))

let bench_abd_write_read n =
  let counter = ref 0 in
  Staged.stage (fun () ->
      incr counter;
      let sim = Dsim.Sim.create ~seed:!counter () in
      let reg = Msgnet.Abd.create ~sim ~n ~f:((n - 1) / 2) ~writer:0 () in
      Msgnet.Abd.write reg ~value:1 ~on_done:(fun () ->
          Msgnet.Abd.read reg ~proc:(n - 1) ~on_done:(fun _ -> ()));
      Dsim.Sim.run sim)

let bench_ct_consensus n =
  let counter = ref 0 in
  Staged.stage (fun () ->
      incr counter;
      let inputs = Tasks.Inputs.distinct n in
      ignore
        (Msgnet.Ct_consensus.run ~seed:!counter ~n ~f:((n - 1) / 2) ~inputs ()))

let bench_early_deciding n =
  let rng = Dsim.Rng.create seed in
  Staged.stage (fun () ->
      let f = (n - 1) / 2 in
      let inputs = Tasks.Inputs.distinct n in
      let pattern = Syncnet.Faults.random_crash rng ~n ~f:1 ~max_round:2 in
      ignore
        (Syncnet.Sync_net.run ~n ~rounds:(f + 1) ~pattern
           ~algorithm:(Syncnet.Early_deciding.algorithm ~inputs ~f)
           ()))

let bench_safe_agreement n =
  let rng = Dsim.Rng.create seed in
  Staged.stage (fun () ->
      let inputs = Tasks.Inputs.distinct n in
      ignore
        (Shm.Safe_agreement.run ~inputs
           ~schedule:(Shm.Exec.Random (Dsim.Rng.split rng))
           ()))

let bench_phased_consensus n =
  let rng = Dsim.Rng.create seed in
  Staged.stage (fun () ->
      let inputs = Tasks.Inputs.distinct n in
      let stabilize_at = 4 in
      ignore
        (Rrfd.Engine.run ~n
           ~max_rounds:(Rrfd.Phased_consensus.rounds_needed ~stabilize_at)
           ~algorithm:(Rrfd.Phased_consensus.algorithm ~inputs)
           ~detector:
             (Rrfd.Phased_consensus.detector (Dsim.Rng.split rng) ~n
                ~f:(n - 1) ~stabilize_at)
           ()))

(* One whole (serial) campaign per run: measures the per-trial overhead the
   Runtime layer adds on top of the raw engine loop above. *)
let bench_campaign_kset n =
  Staged.stage (fun () ->
      ignore
        (Runtime.Campaign.run ~jobs:1 ~seed ~trials:32 (fun ~trial:_ ~rng ->
             let inputs = Tasks.Inputs.distinct n in
             let detector = Rrfd.Detector_gen.k_set rng ~n ~k:2 in
             Rrfd.Engine.run ~n
               ~algorithm:(Rrfd.Kset.one_round ~inputs)
               ~detector ())))

(* The unified substrate layer's dispatch cost: the same engine execution
   as kset-one-round above, but reached through the protocol catalog's
   existentially-packed entry and returned as a Substrate execution record
   — the abstraction tax every catalog-driven run-loop and E22 cell pays
   over the direct call path. *)
let bench_substrate_dispatch n =
  let rng = Dsim.Rng.create seed in
  let proto = Protocols.Catalog.find_exn "kset-one-round" in
  let detector = Rrfd.Detector_gen.k_set rng ~n ~k:2 in
  Staged.stage (fun () ->
      ignore (Protocols.Catalog.run_engine proto ~n ~f:1 ~detector ()))

let bench_sync_flood n =
  let rng = Dsim.Rng.create seed in
  Staged.stage (fun () ->
      let f = (n - 1) / 2 in
      let inputs = Tasks.Inputs.distinct n in
      let pattern = Syncnet.Faults.random_crash rng ~n ~f ~max_round:(f + 1) in
      ignore
        (Syncnet.Sync_net.run ~n ~rounds:(f + 1) ~pattern
           ~algorithm:(Syncnet.Flood.consensus ~inputs ~f)
           ()))

(* The live substrate: spawn n-1 real domains, run quorum-patience
   flood-consensus and join.  Dominated by domain spawn/join cost, so it
   measures the price of trading simulated rounds for real scheduling. *)
let bench_live_substrate n =
  let proto = Protocols.Catalog.find_exn "flood-consensus" in
  Staged.stage (fun () ->
      ignore (Protocols.Catalog.run_live proto ~n ~f:((n - 1) / 2) ()))

let tests =
  Test.make_grouped ~name:"rrfd" ~fmt:"%s/%s"
    [
      Test.make_indexed ~name:"kset-one-round" ~fmt:"%s n=%d" ~args:[ 4; 8; 16; 32 ]
        bench_engine_kset_round;
      Test.make_indexed ~name:"substrate-dispatch" ~fmt:"%s n=%d"
        ~args:[ 4; 8; 16; 32 ] bench_substrate_dispatch;
      Test.make_indexed ~name:"full-info-4-rounds" ~fmt:"%s n=%d" ~args:[ 4; 8 ]
        bench_full_info_rounds;
      Test.make_indexed ~name:"immediate-snapshot" ~fmt:"%s n=%d"
        ~args:[ 4; 8; 16 ] bench_immediate_snapshot;
      Test.make_indexed ~name:"adopt-commit-registers" ~fmt:"%s n=%d"
        ~args:[ 4; 8; 16 ] bench_adopt_commit_registers;
      Test.make_indexed ~name:"sim-crash-2-sync-rounds" ~fmt:"%s n=%d"
        ~args:[ 4; 8 ] bench_sim_crash_round;
      Test.make_indexed ~name:"semisync-two-step" ~fmt:"%s n=%d"
        ~args:[ 4; 16; 32 ] bench_two_step;
      Test.make_indexed ~name:"semisync-ring-baseline" ~fmt:"%s n=%d"
        ~args:[ 4; 16; 32 ] bench_ring_baseline;
      Test.make_indexed ~name:"msgnet-round-layer" ~fmt:"%s n=%d" ~args:[ 4; 8 ]
        bench_round_layer;
      Test.make_indexed ~name:"faultnet-round-layer" ~fmt:"%s n=%d"
        ~args:[ 4; 8 ] bench_faultnet_round_layer;
      Test.make_indexed ~name:"sync-floodset" ~fmt:"%s n=%d" ~args:[ 4; 8; 16 ]
        bench_sync_flood;
      Test.make_indexed ~name:"sync-early-deciding" ~fmt:"%s n=%d"
        ~args:[ 4; 8; 16 ] bench_early_deciding;
      Test.make_indexed ~name:"abd-write+read" ~fmt:"%s n=%d" ~args:[ 3; 5; 9 ]
        bench_abd_write_read;
      Test.make_indexed ~name:"ct-consensus" ~fmt:"%s n=%d" ~args:[ 3; 5 ]
        bench_ct_consensus;
      Test.make_indexed ~name:"safe-agreement" ~fmt:"%s n=%d" ~args:[ 2; 4; 8 ]
        bench_safe_agreement;
      Test.make_indexed ~name:"phased-consensus" ~fmt:"%s n=%d" ~args:[ 4; 8 ]
        bench_phased_consensus;
      Test.make_indexed ~name:"campaign-kset-32-trials" ~fmt:"%s n=%d"
        ~args:[ 8; 16 ] bench_campaign_kset;
      Test.make_indexed ~name:"live-substrate" ~fmt:"%s n=%d" ~args:[ 2; 4 ]
        bench_live_substrate;
    ]

(* Returns (name, ns/run, minor words/run) estimates alongside the printed
   listing, so the telemetry layer can export exactly what was shown.  The
   allocation column is the same OLS fit applied to bechamel's
   minor_allocated measure: words of minor-heap allocation per run,
   attributing loop-amortised GC noise away exactly like the clock fit. *)
let run_timing () =
  Printf.printf
    "\n=== micro-benchmarks (estimated time / minor words per run) ===\n%!";
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second !quota) ~kde:None () in
  let raw =
    Benchmark.all cfg [ minor_words_instance; Instance.monotonic_clock ] tests
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let estimate results name =
    match Hashtbl.find_opt results name with
    | None -> nan
    | Some ols_result -> (
      match Analyze.OLS.estimates ols_result with
      | Some (t :: _) -> t
      | Some [] | None -> nan)
  in
  let times = Analyze.all ols Instance.monotonic_clock raw in
  let allocs = Analyze.all ols minor_words_instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name _ ->
      let nanos = estimate times name in
      let words = estimate allocs name in
      let alloc = if Float.is_nan words then None else Some words in
      rows := { Report.name; ns_per_run = nanos; alloc_per_run = alloc } :: !rows)
    times;
  let rows = List.sort compare !rows in
  List.iter
    (fun { Report.name; ns_per_run = nanos; alloc_per_run = alloc } ->
      let alloc_str =
        match alloc with
        | None -> ""
        | Some w -> Printf.sprintf "  %10.1f w/run" w
      in
      if Float.is_nan nanos then Printf.printf "  %-40s (no estimate)\n" name
      else if nanos > 1_000_000.0 then
        Printf.printf "  %-40s %10.3f ms/run%s\n" name
          (nanos /. 1_000_000.0) alloc_str
      else if nanos > 1_000.0 then
        Printf.printf "  %-40s %10.3f us/run%s\n" name (nanos /. 1_000.0)
          alloc_str
      else Printf.printf "  %-40s %10.1f ns/run%s\n" name nanos alloc_str)
    rows;
  rows

let run_tables () =
  Printf.printf "=== experiment tables (reduced trial counts) ===\n%!";
  let tables =
    List.map
      (fun e ->
        fst
          (e.Experiments.Registry.run ~seed ~trials:(Some !table_trials)
             ~jobs:None))
      Experiments.Registry.all
  in
  List.iter Experiments.Table.print tables;
  tables

(* Serial-vs-parallel wall clock for a campaign-backed experiment, with the
   determinism contract checked on the spot: the two tables must be equal
   cell for cell.  Timed with the monotonic clock — NTP slews and
   wall-clock jumps must not skew a determinism/speedup verdict. *)
let run_speedup () =
  let jobs = Runtime.Pool.recommended_jobs () in
  Printf.printf "\n=== campaign speedup (E6, %d cores recommended) ===\n%!" jobs;
  let wall f =
    let t0 = Mclock.now () in
    let r = f () in
    let t1 = Mclock.now () in
    (r, Int64.to_float (Int64.sub t1 t0) /. 1e9)
  in
  let trials = !speedup_trials in
  let serial, t_serial =
    wall (fun () -> Experiments.E06_kset_one_round.run ~seed ~trials ~jobs:1 ())
  in
  let parallel, t_parallel =
    wall (fun () -> Experiments.E06_kset_one_round.run ~seed ~trials ~jobs ())
  in
  let identical = serial = parallel in
  let factor = t_serial /. t_parallel in
  Printf.printf
    "  E6 x%d trials: serial %.3fs, -j %d %.3fs, speedup %.2fx, tables \
     identical: %s\n"
    trials t_serial jobs t_parallel factor
    (if identical then "yes" else "NO");
  if jobs < 4 then
    Printf.printf
      "  (fewer than 4 cores: speedup is not expected to clear 1.5x here)\n";
  {
    Report.trials;
    jobs;
    serial_s = t_serial;
    parallel_s = t_parallel;
    factor;
    identical;
  }

(* Telemetry ---------------------------------------------------------- *)

let build_report ~subjects ~tables ~speedup =
  Report.make ~seed ~speedup
    ~tables:
      (List.map
         (fun t ->
           {
             Report.id = t.Experiments.Table.id;
             title = t.Experiments.Table.title;
             ok = Experiments.Table.ok t;
             counters =
               List.map
                 (fun (label, s) -> (label, Report.stat_of_stats s))
                 t.Experiments.Table.counters;
           })
         tables)
    subjects

let () =
  (* A bad baseline fails before the minutes of measurement, not after. *)
  let baseline =
    Option.map
      (fun path ->
        match Report.read Report.codec path with
        | Ok r -> r
        | Error e ->
          prerr_endline e;
          exit 2)
      !check_path
  in
  let tables = run_tables () in
  let failed = List.filter (fun t -> not (Experiments.Table.ok t)) tables in
  let subjects = run_timing () in
  let speedup = run_speedup () in
  let report = build_report ~subjects ~tables ~speedup in
  Option.iter
    (fun path ->
      let path = Report.artifact_path ~prefix:"BENCH" path in
      Report.write Report.codec path report;
      Printf.printf "\nbench: wrote %s\n" path)
    !json_path;
  let check_passed =
    match baseline with
    | None -> true
    | Some baseline ->
      let result =
        Report.check ~tolerance_pct:!tolerance ~baseline ~current:report
      in
      Report.print_check result;
      Report.check_ok result
  in
  let deterministic = speedup.Report.identical in
  if not deterministic then
    Printf.printf "\nbench: serial and parallel E6 tables DIFFER\n";
  if failed <> [] then
    Printf.printf "\nbench: FAILED tables: %s\n"
      (String.concat ", " (List.map (fun t -> t.Experiments.Table.id) failed));
  if not check_passed then
    Printf.printf "\nbench: regression check against baseline FAILED\n";
  if failed = [] && deterministic && check_passed then
    Printf.printf "\nbench: all experiment tables OK\n"
  else exit 1
