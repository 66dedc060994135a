(* Campaign benchmark driver.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs the named workload's fixed, seeded list of ops and prints, as the
   last line of standard output, one JSON object with the keys correct,
   attempted, failed and metrics: the end-to-end metrics with --trace 0,
   the per-layer metrics with --trace 1.  The amount of work is a constant
   of each workload (sized for about [run_seconds] of BENCHMARK.json on a
   2-core x86-64 host); [--seconds] is accepted for the command-line
   contract and does not change it.  See README.md. *)

module W = Campaignbench.Workload
module Stats = Campaignbench.Stats
module Span = Campaignbench.Span
module Layers = Campaignbench.Layers

let usage () =
  prerr_endline
    "usage: main.exe --workload (check-phased|derive-lossy|ct-n64) --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None in
  let int_arg s = match int_of_string_opt s with Some v -> v | None -> usage () in
  let rec go = function
    | "--workload" :: v :: rest ->
      workload := Some v;
      go rest
    | "--seed" :: v :: rest ->
      seed := Some (int_arg v);
      go rest
    | "--seconds" :: v :: rest ->
      seconds := Some (int_arg v);
      go rest
    | "--trace" :: v :: rest ->
      trace := Some (int_arg v);
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace
    when seconds > 0 && (trace = 0 || trace = 1) -> (
    match W.find name with Some w -> (w, seed, trace = 1) | None -> usage ())
  | _ -> usage ()

let num v =
  if not (Float.is_finite v) then failwith "non-finite metric";
  Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  let m =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed (String.concat ", " m)

let print_counts (w : W.t) ~seed (c : W.counts) =
  Printf.printf
    "counters workload=%s seed=%d ops=%d execs=%d rounds=%d queries=%d \
     checks=%d sent=%d delivered=%d digest=%d\n"
    w.name seed w.ops c.execs c.rounds c.queries c.checks c.sent c.delivered
    c.digest

let elapsed t0 = float_of_int (Span.now () - t0)

let cpu_elapsed t0 = float_of_int (Span.cpu_now () - t0)

(* {1 Host-speed reference}

   A shared host's speed drifts by ten percent and more over minutes as
   other tenants come and go, and every timing drifts with it.  The
   reference is a fixed computation that shares no code with rrfd and
   allocates nothing, so neither a change to the program nor the state
   of its heap can change its cost.  It is timed at evenly spaced points
   of the run, and every reported timing is scaled by [reference_ns]
   over its median time in the run: timings read as on the reference
   host. *)

let reference_ns = 1_100_000.

let reference_template =
  Array.init 8192 (fun i -> ((i * 7919) + 13) land 0xFFFF)

let reference_buf = Array.make 8192 0

let reference () =
  let t0 = Span.cpu_now () in
  Array.blit reference_template 0 reference_buf 0 8192;
  Array.sort Int.compare reference_buf;
  cpu_elapsed t0

(* {1 The measured run} *)

let untraced (w : W.t) ~seed =
  let attempted = ref 0 and failed = ref 0 in
  let tally (o : W.op) =
    incr attempted;
    if not o.ok then incr failed
  in
  (* Each set-up ends with one warm-up op (indices past the measured
     list), so lazy initialisation is paid there, not in the first op.
     The first set-up serves the whole run; the others are spread evenly
     between the measured ops, so a burst of host load at one moment
     cannot move their median. *)
  let setup_s = Array.make w.setup_reps 0. in
  let setup r =
    let t0 = Span.cpu_now () in
    let rn = w.prepare () in
    tally (rn.run (W.fresh ()) ~seed (w.ops + r));
    setup_s.(r) <- cpu_elapsed t0 /. 1e9;
    rn
  in
  let rn = setup 0 in
  let stride = max 1 (2 * w.ops / w.setup_reps) in
  let minor = ref 0. in
  let ref_stride = max 1 (2 * w.ops / 200) in
  let refs = ref [] in
  (* The op list runs twice; an op's latency is the lower of its two
     timings.  Host interference comes in bursts that hit one pass, so
     the percentiles describe the program, not its neighbours.  The
     second pass must reproduce the first's output digests. *)
  let pass p =
    let c = W.fresh () in
    let lat = Array.make w.ops 0. and wall = Array.make w.ops 0. in
    let out = Array.make w.ops { W.execs = 0; ok = false; digest = 0 } in
    for i = 0 to w.ops - 1 do
      let g = (p * w.ops) + i in
      if g > 0 && g mod stride = 0 && g / stride < w.setup_reps then
        ignore (setup (g / stride) : W.runner);
      if g mod ref_stride = 0 then refs := reference () :: !refs;
      let m0 = Gc.minor_words () in
      let w0 = Span.now () in
      let t0 = Span.cpu_now () in
      out.(i) <- rn.run c ~seed i;
      lat.(i) <- cpu_elapsed t0;
      wall.(i) <- elapsed w0;
      minor := !minor +. (Gc.minor_words () -. m0)
    done;
    (c, lat, wall, out)
  in
  let c, lat_a, wall, out_a = pass 0 in
  let c_b, lat_b, _, out_b = pass 1 in
  let latencies = Array.map2 Float.min lat_a lat_b in
  let units = Array.map (fun (o : W.op) -> o.execs) out_a in
  Array.iter2 (fun a b -> tally (W.agree a b)) out_a out_b;
  assert (Stats.supported ~n:w.ops ~pct:99);
  let execs = float_of_int (max 1 (c.execs + c_b.execs)) in
  let execs_per_s =
    Stats.median (Stats.batch_rates ~batches:20 ~latencies_ns:latencies ~units)
  in
  let top_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  print_counts w ~seed c;
  Printf.printf
    "ops=%d x 2 passes (p99 has %d samples beyond it), set-ups=%d; first \
     pass wall-clock op p50 %.1f us, p99 %.1f us\n"
    w.ops (Stats.beyond ~n:w.ops ~pct:99) w.setup_reps
    (Stats.percentile wall ~pct:50 /. 1e3)
    (Stats.percentile wall ~pct:99 /. 1e3);
  let k = reference_ns /. Stats.median (Array.of_list !refs) in
  print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
    [
      ("execs_per_s", execs_per_s /. k, "1/s");
      ("op_p50_us", k *. Stats.percentile latencies ~pct:50 /. 1e3, "us");
      ("op_p99_us", k *. Stats.percentile latencies ~pct:99 /. 1e3, "us");
      ("minor_words_per_exec", !minor /. execs, "words");
      ("top_heap_mb", top_heap_mb, "MiB");
      ("setup_s", k *. Stats.median setup_s, "s");
    ]

(* {1 The traced run}

   Alternates each op untraced and traced on the same seed: the traced
   pass must reproduce the untraced output digest, and the difference in
   their times is the tracing overhead.  Then the isolated layer subjects
   run, and the span total per execution is set beside
   Σ(layer cost × exact count). *)

let traced (w : W.t) ~seed =
  let rn = w.prepare () in
  let attempted = ref 0 and failed = ref 0 in
  let tally (o : W.op) =
    incr attempted;
    if not o.ok then incr failed
  in
  let cu = W.fresh () and ct = W.fresh () in
  let span = Span.create () in
  let tu = ref 0. and tt = ref 0. and minor_gc = ref 0 and major_gc = ref 0 in
  for i = 0 to w.traced_ops - 1 do
    let g0 = Gc.quick_stat () in
    let t0 = Span.now () in
    let ou = rn.run cu ~seed i in
    tu := !tu +. elapsed t0;
    let g1 = Gc.quick_stat () in
    minor_gc := !minor_gc + g1.Gc.minor_collections - g0.Gc.minor_collections;
    major_gc := !major_gc + g1.Gc.major_collections - g0.Gc.major_collections;
    Span.set_op span i;
    let t0 = Span.now () in
    let ot = rn.traced span ct ~seed i in
    tt := !tt +. elapsed t0;
    tally (W.agree ou ot)
  done;
  let execs = float_of_int (max 1 cu.execs) in
  let per x = float_of_int x /. float_of_int (max 1 ct.execs) in
  let subjects = Layers.measure ~seed in
  let cost name = List.assoc name subjects in
  let a =
    Stats.attribute
      ~span_ns:(Span.root_total span /. float_of_int (max 1 ct.execs))
      (Layers.terms ~workload:w.name ~cost ct)
  in
  print_counts w ~seed ct;
  Printf.printf "spans (%d ops, %d executions), per execution:\n" w.traced_ops
    ct.execs;
  List.iter
    (fun (s : Span.summary) ->
      Printf.printf "  %-28s %10.2f calls %12.1f ns total %12.1f ns self\n"
        s.span (per s.count)
        (s.total_ns /. float_of_int ct.execs)
        (s.self_ns /. float_of_int ct.execs))
    (Span.summarise span);
  Printf.printf "attribution for %s, per execution:\n" w.name;
  List.iter
    (fun (t : Stats.term) ->
      Printf.printf "  %-36s %10.1f ns x %9.3f = %12.1f ns\n" t.layer t.cost_ns
        t.count (t.cost_ns *. t.count))
    a.terms;
  Printf.printf
    "  sum %.1f ns, span total %.1f ns, residual %.1f ns (%.1f%%)\n" a.sum_ns
    a.span_ns a.residual_ns (100. *. a.residual_share);
  let overhead = (!tt -. !tu) /. !tu in
  Printf.printf "tracing overhead: traced %.3f s vs untraced %.3f s (%+.1f%%)\n"
    (!tt /. 1e9) (!tu /. 1e9) (100. *. overhead);
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  print_result ~correct:(!failed = 0) ~attempted:!attempted ~failed:!failed
    (List.map
       (fun (name, v) ->
         (name, v, if name = "submodel.lattice_s" then "s" else "ns"))
       subjects
    @ [
        ("gc.minor_collections_per_exec", float_of_int !minor_gc /. execs, "count");
        ("gc.major_collections_per_exec", float_of_int !major_gc /. execs, "count");
        ("engine.rounds_per_exec", per ct.rounds, "count");
        ("detector.queries_per_exec", per ct.queries, "count");
        ("predicate.checks_per_exec", per ct.checks, "count");
        ("network.msgs_per_exec", per ct.sent, "count");
        ("network.delivered_per_sent", ratio ct.delivered ct.sent, "ratio");
        ("attribution.span_ns_per_exec", a.span_ns, "ns");
        ("attribution.sum_ns_per_exec", a.sum_ns, "ns");
        ("attribution.residual_share", a.residual_share, "ratio");
        ("trace.overhead_share", overhead, "ratio");
      ])

let () =
  let w, seed, trace = parse Sys.argv in
  if trace then traced w ~seed else untraced w ~seed
