(** Machine-readable bench telemetry (the BENCH json).

    One value of {!t} captures everything a bench run measured — the
    micro-benchmark subjects (ns/run), each experiment table's status plus
    its engine work counters, the campaign speedup check — together with
    the metadata needed to compare runs (seed, jobs, git sha, hostname).
    {!check} compares two such reports and is the regression gate CI runs:
    a subject slower than baseline beyond a tolerance, or a table that was
    passing and now fails, is a hard failure.

    Schema (version {!version}) — see README.md for the field-by-field
    description:
    {v
    { "version": 2,
      "meta": { "seed", "jobs", "git_sha", "hostname" },
      "subjects": [ { "name", "ns_per_run", "alloc_per_run"? } ],
      "tables": [ { "id", "title", "ok",
                    "counters": { <label>: { "count", "mean", "stddev",
                                             "min", "max" } } } ],
      "speedup": { "trials", "jobs", "serial_s", "parallel_s",
                   "factor", "identical" } | null }
    v} *)

module Json = Json

module Codec = Codec

val version : int
(** Current schema version (2).  {!codec} also accepts version 1 —
    v2 is v1 plus the optional per-subject [alloc_per_run] — and refuses
    anything else. *)

type stat = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}
(** A decoded {!Runtime.Stats.t} (that type is private, so reports carry
    their own mirror). *)

type subject = {
  name : string;  (** e.g. ["rrfd/kset-one-round n=8"]. *)
  ns_per_run : float;  (** OLS estimate; [nan] when bechamel had none. *)
  alloc_per_run : float option;
      (** Minor-heap words allocated per run ([Gc.minor_words] delta over
          a counted loop), when the run sampled it.  [None] in v1 reports
          and for subjects the run did not instrument.  Informational —
          the regression gate is on time; the hard allocation gate is the
          [@alloc-smoke] alias. *)
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
  identical : bool;  (** Serial and parallel tables bit-identical. *)
}

type meta = {
  seed : int;
  jobs : int;
  recommended_jobs : int;
      (** [Domain.recommended_domain_count] on the recording machine, so
          a report shows whether [jobs] oversubscribed it.  0 in reports
          written before the field existed (the decoder tolerates its
          absence). *)
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

val stat_of_stats : Runtime.Stats.t -> stat

val codec : t Codec.t
(** [Error] on shape or version mismatch. *)

val make : seed:int -> ?tables:table list -> ?speedup:speedup -> subject list -> t
(** A current-version report whose {!meta} describes this run: [seed],
    the pool's job count, the machine's recommended domain count, the
    git sha and the hostname.  The one place that metadata is built. *)

(** {1 The artifact path}

    Every file this repository writes or reads back — BENCH reports,
    check counterexamples, [e24-byz] and [e26-derive] artifacts, live
    recordings, the table artifacts of [run ID --json] and the grid
    artifacts of [live] and [scale] — goes through {!artifact_path} (for
    [auto] naming), {!write} and {!read}.  No other module opens an
    artifact file itself. *)

val artifact_path : prefix:string -> string -> string
(** [artifact_path ~prefix path] is [path] verbatim, except the literal
    ["auto"] becomes [<prefix>_<sha>.json], [<sha>] being
    [git rev-parse --short HEAD] (["unknown"] outside a work tree). *)

val write : ?pretty:bool -> 'a Codec.t -> string -> 'a -> unit
(** [write codec path v] writes [v] (compact unless [pretty]) with a
    trailing newline. *)

val read : 'a Codec.t -> string -> ('a, string) result
(** [read codec path] loads, parses and decodes the file at [path].  A
    missing, unreadable, empty, truncated or foreign file is [Error] with
    the path in the message; this never raises. *)

(** {1 Regression check} *)

type verdict =
  | Ok  (** Within tolerance. *)
  | Regressed  (** Slower than baseline beyond tolerance — gates. *)
  | Improved  (** Faster than baseline beyond tolerance (informational). *)
  | Missing  (** In baseline, absent from the current run. *)
  | New  (** In the current run, absent from baseline. *)
  | Incomparable  (** No finite estimate on one of the sides. *)

type comparison = {
  subject : string;
  baseline_ns : float;  (** [nan] when absent. *)
  current_ns : float;  (** [nan] when absent. *)
  delta_pct : float;  (** [(new − old)/old · 100]; [nan] if incomparable. *)
  verdict : verdict;
}

type check_result = {
  tolerance_pct : float;
  comparisons : comparison list;  (** Baseline order, then new subjects. *)
  regressions : string list;  (** Subjects with [Regressed]. *)
  broken_tables : string list;
      (** Tables ok in baseline but failing (or gone) in the current run —
          strict, no tolerance. *)
  stale_tables : string list;
      (** Tables failing in baseline but passing now: the baseline no
          longer describes reality and must be refreshed.  Gates, so the
          status check is strict in both directions. *)
}

val check : tolerance_pct:float -> baseline:t -> current:t -> check_result
(** Compare a fresh run against a baseline.  Subject timing gates with
    tolerance ([Regressed] iff [delta_pct > tolerance_pct]); table status
    gates strictly.  [Missing]/[New]/[Incomparable] subjects never gate:
    estimates on shared runners come and go, only confirmed slowdowns and
    broken tables should fail CI. *)

val check_ok : check_result -> bool
(** No regressions, no broken tables, no stale tables. *)

val print_check : check_result -> unit
(** Render the per-subject old/new/delta table and the verdict summary to
    stdout. *)
