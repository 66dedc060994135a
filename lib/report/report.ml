module Json = Json

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
(* Encode.                                                             *)

let json_of_stat s =
  Json.Obj
    [
      ("count", Json.Number (float_of_int s.count));
      ("mean", Json.Number s.mean);
      ("stddev", Json.Number s.stddev);
      ("min", Json.Number s.min);
      ("max", Json.Number s.max);
    ]

let json_of_subject s =
  Json.Obj
    ([ ("name", Json.String s.name); ("ns_per_run", Json.Number s.ns_per_run) ]
    @
    match s.alloc_per_run with
    | None -> []
    | Some w -> [ ("alloc_per_run", Json.Number w) ])

let json_of_table t =
  Json.Obj
    [
      ("id", Json.String t.id);
      ("title", Json.String t.title);
      ("ok", Json.Bool t.ok);
      ( "counters",
        Json.Obj (List.map (fun (k, s) -> (k, json_of_stat s)) t.counters) );
    ]

let json_of_speedup s =
  Json.Obj
    [
      ("trials", Json.Number (float_of_int s.trials));
      ("jobs", Json.Number (float_of_int s.jobs));
      ("serial_s", Json.Number s.serial_s);
      ("parallel_s", Json.Number s.parallel_s);
      ("factor", Json.Number s.factor);
      ("identical", Json.Bool s.identical);
    ]

let to_json r =
  Json.Obj
    [
      ("version", Json.Number (float_of_int r.version));
      ( "meta",
        Json.Obj
          [
            ("seed", Json.Number (float_of_int r.meta.seed));
            ("jobs", Json.Number (float_of_int r.meta.jobs));
            ( "recommended_jobs",
              Json.Number (float_of_int r.meta.recommended_jobs) );
            ("git_sha", Json.String r.meta.git_sha);
            ("hostname", Json.String r.meta.hostname);
          ] );
      ("subjects", Json.List (List.map json_of_subject r.subjects));
      ("tables", Json.List (List.map json_of_table r.tables));
      ( "speedup",
        match r.speedup with None -> Json.Null | Some s -> json_of_speedup s );
    ]

(* ------------------------------------------------------------------ *)
(* Decode.                                                             *)

let stat_of_json j =
  {
    count = Json.int (Json.member "count" j);
    mean = Json.num (Json.member "mean" j);
    stddev = Json.num (Json.member "stddev" j);
    min = Json.num (Json.member "min" j);
    max = Json.num (Json.member "max" j);
  }

let subject_of_json j =
  {
    name = Json.str (Json.member "name" j);
    ns_per_run = Json.num (Json.member "ns_per_run" j);
    alloc_per_run =
      (* absent in v1 reports and in v2 subjects without a sample *)
      (match Json.member "alloc_per_run" j with
      | Json.Null -> None
      | w -> Some (Json.num w));
  }

let table_of_json j =
  {
    id = Json.str (Json.member "id" j);
    title = Json.str (Json.member "title" j);
    ok = Json.bool (Json.member "ok" j);
    counters =
      List.map (fun (k, s) -> (k, stat_of_json s))
        (Json.obj (Json.member "counters" j));
  }

let speedup_of_json j =
  {
    trials = Json.int (Json.member "trials" j);
    jobs = Json.int (Json.member "jobs" j);
    serial_s = Json.num (Json.member "serial_s" j);
    parallel_s = Json.num (Json.member "parallel_s" j);
    factor = Json.num (Json.member "factor" j);
    identical = Json.bool (Json.member "identical" j);
  }

let decode_report j =
  let v = Json.int (Json.member "version" j) in
  (* v1 decodes tolerantly: it is v2 minus the per-subject allocation
     field, so old baselines stay comparable across the schema bump. *)
  if v < 1 || v > version then
    raise
      (Json.Error
         (Printf.sprintf "report: unsupported schema version %d (want 1..%d)" v
            version));
  let m = Json.member "meta" j in
  {
    version = v;
    meta =
      {
        seed = Json.int (Json.member "seed" m);
        jobs = Json.int (Json.member "jobs" m);
        recommended_jobs =
          (* absent in pre-oversubscription-era reports: 0 = unrecorded *)
          (match Json.member "recommended_jobs" m with
          | Json.Null -> 0
          | j -> Json.int j);
        git_sha = Json.str (Json.member "git_sha" m);
        hostname = Json.str (Json.member "hostname" m);
      };
    subjects = List.map subject_of_json (Json.list (Json.member "subjects" j));
    tables = List.map table_of_json (Json.list (Json.member "tables" j));
    speedup =
      (match Json.member "speedup" j with
      | Json.Null -> None
      | s -> Some (speedup_of_json s));
  }

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

let write ?(pretty = false) path json =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc
        (if pretty then Json.to_string_pretty json else Json.to_string json);
      output_char oc '\n')

(* Every way a decoder can reject hostile input: the accessors' shape
   errors, and the integer/history parsers some codecs call. *)
let decoding decode json =
  match decode json with
  | v -> Ok v
  | exception (Json.Error e | Failure e | Invalid_argument e) -> Error e

let require_header ~kind ~version json =
  let fail fmt = Printf.ksprintf (fun e -> raise (Json.Error e)) fmt in
  let k = Json.str (Json.member "kind" json) in
  if k <> kind then fail "expected kind %S, got %S" kind k;
  let v = Json.int (Json.member "version" json) in
  if v <> version then fail "unsupported %s version %d" kind v

let parse decode text =
  match Json.of_string text with
  | json -> decode json
  | exception Json.Error e -> Error e

let read decode path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match parse decode text with
    | Ok _ as ok -> ok
    | Error e -> Error (Printf.sprintf "%s: %s" path e))

let of_json = decoding decode_report

let to_string r = Json.to_string (to_json r)

let of_string = parse of_json

let save path r = write path (to_json r)

let load = read of_json

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
