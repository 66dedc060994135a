module Json = Json
module Codec = Codec

let version = 2

type stat = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

type subject = {
  name : string;
  ns_per_run : float;
  alloc_per_run : float option;
}

type table = {
  id : string;
  title : string;
  ok : bool;
  counters : (string * stat) list;
}

type speedup = {
  trials : int;
  jobs : int;
  serial_s : float;
  parallel_s : float;
  factor : float;
  identical : bool;
}

type meta = {
  seed : int;
  jobs : int;
  recommended_jobs : int;
  git_sha : string;
  hostname : string;
}

type t = {
  version : int;
  meta : meta;
  subjects : subject list;
  tables : table list;
  speedup : speedup option;
}

let stat_of_stats (s : Runtime.Stats.t) =
  {
    count = s.Runtime.Stats.count;
    mean = s.Runtime.Stats.mean;
    stddev = s.Runtime.Stats.stddev;
    min = s.Runtime.Stats.min;
    max = s.Runtime.Stats.max;
  }

(* ------------------------------------------------------------------ *)
(* Codec.                                                              *)

let stat =
  Codec.(
    record (fun count mean stddev min max -> { count; mean; stddev; min; max })
    |> field "count" int (fun s -> s.count)
    |> field "mean" float (fun s -> s.mean)
    |> field "stddev" float (fun s -> s.stddev)
    |> field "min" float (fun s -> s.min)
    |> field "max" float (fun s -> s.max)
    |> obj)

let subject =
  Codec.(
    record (fun name ns_per_run alloc_per_run -> { name; ns_per_run; alloc_per_run })
    |> field "name" string (fun s -> s.name)
    |> field "ns_per_run" float (fun s -> s.ns_per_run)
    (* absent in v1 reports and in v2 subjects without a sample *)
    |> opt "alloc_per_run" float (fun s -> s.alloc_per_run)
    |> obj)

let table =
  Codec.(
    record (fun id title ok counters -> { id; title; ok; counters })
    |> field "id" string (fun t -> t.id)
    |> field "title" string (fun t -> t.title)
    |> field "ok" bool (fun t -> t.ok)
    |> field "counters" (assoc stat) (fun t -> t.counters)
    |> obj)

let speedup =
  Codec.(
    record (fun trials jobs serial_s parallel_s factor identical ->
        { trials; jobs; serial_s; parallel_s; factor; identical })
    |> field "trials" int (fun s -> s.trials)
    |> field "jobs" int (fun (s : speedup) -> s.jobs)
    |> field "serial_s" float (fun s -> s.serial_s)
    |> field "parallel_s" float (fun s -> s.parallel_s)
    |> field "factor" float (fun s -> s.factor)
    |> field "identical" bool (fun s -> s.identical)
    |> obj)

let meta =
  Codec.(
    record (fun seed jobs recommended_jobs git_sha hostname ->
        (* absent in pre-oversubscription-era reports: 0 = unrecorded *)
        let recommended_jobs = Option.value recommended_jobs ~default:0 in
        { seed; jobs; recommended_jobs; git_sha; hostname })
    |> field "seed" int (fun m -> m.seed)
    |> field "jobs" int (fun (m : meta) -> m.jobs)
    |> opt "recommended_jobs" int (fun m -> Some m.recommended_jobs)
    |> field "git_sha" string (fun m -> m.git_sha)
    |> field "hostname" string (fun m -> m.hostname)
    |> obj)

(* v1 decodes tolerantly: it is v2 minus the per-subject allocation
   field, so old baselines stay comparable across the schema bump. *)
let schema_version =
  Codec.map Codec.int ~enc:Fun.id ~dec:(fun v ->
      if v < 1 || v > version then
        Codec.fail "report: unsupported schema version %d (want 1..%d)" v version;
      v)

let codec =
  Codec.(
    record (fun version meta subjects tables speedup ->
        { version; meta; subjects; tables; speedup })
    |> field "version" schema_version (fun r -> r.version)
    |> field "meta" meta (fun r -> r.meta)
    |> field "subjects" (list subject) (fun r -> r.subjects)
    |> field "tables" (list table) (fun r -> r.tables)
    |> field "speedup" (nullable speedup) (fun r -> r.speedup)
    |> obj)

(* ------------------------------------------------------------------ *)
(* The one artifact path: naming, writer, loader.                      *)

let git_short_sha () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"

let artifact_path ~prefix path =
  if path = "auto" then Printf.sprintf "%s_%s.json" prefix (git_short_sha ())
  else path

let write ?pretty codec path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Codec.to_string ?pretty codec v);
      output_char oc '\n')

let read codec path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    Result.map_error (Printf.sprintf "%s: %s" path) (Codec.of_string codec text)

let make ~seed ?(tables = []) ?speedup subjects =
  {
    version;
    meta =
      {
        seed;
        jobs = Runtime.Pool.recommended_jobs ();
        recommended_jobs = Domain.recommended_domain_count ();
        git_sha = git_short_sha ();
        hostname = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
      };
    subjects;
    tables;
    speedup;
  }

(* ------------------------------------------------------------------ *)
(* Regression check.                                                   *)

type verdict = Ok | Regressed | Improved | Missing | New | Incomparable

type comparison = {
  subject : string;
  baseline_ns : float;
  current_ns : float;
  delta_pct : float;
  verdict : verdict;
}

type check_result = {
  tolerance_pct : float;
  comparisons : comparison list;
  regressions : string list;
  broken_tables : string list;
  stale_tables : string list;
}

let finite v = Float.is_nan v = false && Float.abs v <> infinity && v > 0.0

let compare_subject ~tolerance_pct name baseline_ns current_ns =
  let verdict, delta_pct =
    match (finite baseline_ns, finite current_ns) with
    | true, true ->
      let delta = (current_ns -. baseline_ns) /. baseline_ns *. 100.0 in
      if delta > tolerance_pct then (Regressed, delta)
      else if delta < -.tolerance_pct then (Improved, delta)
      else (Ok, delta)
    | _ -> (Incomparable, nan)
  in
  { subject = name; baseline_ns; current_ns; delta_pct; verdict }

let check ~tolerance_pct ~baseline ~current =
  let current_subjects =
    List.map (fun s -> (s.name, s.ns_per_run)) current.subjects
  in
  let baseline_subjects =
    List.map (fun s -> (s.name, s.ns_per_run)) baseline.subjects
  in
  let comparisons =
    List.map
      (fun (name, old_ns) ->
        match List.assoc_opt name current_subjects with
        | None ->
          {
            subject = name;
            baseline_ns = old_ns;
            current_ns = nan;
            delta_pct = nan;
            verdict = Missing;
          }
        | Some new_ns -> compare_subject ~tolerance_pct name old_ns new_ns)
      baseline_subjects
    @ List.filter_map
        (fun (name, new_ns) ->
          if List.mem_assoc name baseline_subjects then None
          else
            Some
              {
                subject = name;
                baseline_ns = nan;
                current_ns = new_ns;
                delta_pct = nan;
                verdict = New;
              })
        current_subjects
  in
  let regressions =
    List.filter_map
      (fun c -> if c.verdict = Regressed then Some c.subject else None)
      comparisons
  in
  let broken_tables =
    List.filter_map
      (fun (bt : table) ->
        if not bt.ok then None
        else
          match List.find_opt (fun (ct : table) -> ct.id = bt.id) current.tables with
          | Some ct when ct.ok -> None
          | Some _ | None -> Some bt.id)
      baseline.tables
  in
  let stale_tables =
    List.filter_map
      (fun (bt : table) ->
        if bt.ok then None
        else
          match List.find_opt (fun (ct : table) -> ct.id = bt.id) current.tables with
          | Some ct when ct.ok -> Some bt.id
          | Some _ | None -> None)
      baseline.tables
  in
  { tolerance_pct; comparisons; regressions; broken_tables; stale_tables }

let check_ok r =
  r.regressions = [] && r.broken_tables = [] && r.stale_tables = []

let pp_ns v =
  if Float.is_nan v then "-"
  else if v > 1e6 then Printf.sprintf "%.3f ms" (v /. 1e6)
  else if v > 1e3 then Printf.sprintf "%.3f us" (v /. 1e3)
  else Printf.sprintf "%.1f ns" v

let verdict_label = function
  | Ok -> "ok"
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Missing -> "missing"
  | New -> "new"
  | Incomparable -> "no estimate"

let print_check r =
  Printf.printf "\n=== bench check (tolerance ±%.0f%%) ===\n" r.tolerance_pct;
  Printf.printf "  %-44s %12s %12s %9s  %s\n" "subject" "baseline" "current"
    "delta" "verdict";
  List.iter
    (fun c ->
      let delta =
        if Float.is_nan c.delta_pct then "-"
        else Printf.sprintf "%+.1f%%" c.delta_pct
      in
      Printf.printf "  %-44s %12s %12s %9s  %s\n" c.subject (pp_ns c.baseline_ns)
        (pp_ns c.current_ns) delta (verdict_label c.verdict))
    r.comparisons;
  if r.broken_tables <> [] then
    Printf.printf "  tables newly FAILING: %s\n"
      (String.concat ", " r.broken_tables);
  if r.stale_tables <> [] then
    Printf.printf
      "  tables failing in baseline but passing now (refresh the baseline): \
       %s\n"
      (String.concat ", " r.stale_tables);
  if check_ok r then Printf.printf "  check: OK\n"
  else
    Printf.printf
      "  check: FAILED (%d regression(s), %d broken table(s), %d stale \
       table(s))\n"
      (List.length r.regressions)
      (List.length r.broken_tables)
      (List.length r.stale_tables)
