(** Result tables for the experiment harness.

    Every experiment produces one table; the bench harness and the
    [experiments] CLI render them identically, so EXPERIMENTS.md can quote
    the output verbatim. *)

type t = {
  id : string;  (** "E6" *)
  title : string;
  claim : string;  (** The paper statement being reproduced. *)
  header : string list;
  rows : string list list;
  notes : string list;
  counters : (string * Runtime.Stats.t) list;
      (** Work accounting: per-trial {!Rrfd.Counters} fields summarised
          over every trial behind the table ([[]] for experiments that do
          not drive the engine).  Printed as "work:" lines and exported in
          the BENCH json. *)
}

val cell_int : int -> string

val cell_float : float -> string
(** Two decimal places. *)

val cell_bool : bool -> string
(** "yes" / "NO". *)

val counter_stats : Rrfd.Counters.t array -> (string * Runtime.Stats.t) list
(** [counter_stats trials] summarises one engine-counter record per trial
    into per-field {!Runtime.Stats}, in {!Rrfd.Counters.to_fields} order —
    the canonical way for an experiment to fill {!t.counters}.  [[]] for an
    empty array. *)

val print : t -> unit
(** Render to stdout with aligned columns. *)

val ok : t -> bool
(** True iff no row cell equals ["NO"] — the quick health signal used by
    the harness exit code. *)

val to_json : seed:int -> ?extra:string * Report.Json.t -> t -> Report.Json.t
(** The envelope [run ID --json] writes for every table:
    [{id, seed, header, rows, ok}], followed by the experiment's own
    [extra] field (its per-trial or per-row detail) when it has one. *)
