(** The experiment registry: every table the harness can regenerate. *)

type entry = {
  id : string;
  title : string;
  run :
    seed:int ->
    trials:int option ->
    jobs:int option ->
    Table.t * (string * Report.Json.t) option;
}
(** [jobs] is the campaign worker-domain count ([None] = all cores); it
    never changes a table, only how fast it is produced.  Serial
    experiments ignore it.  Besides the table, [run] returns the extra
    field its {!Table.to_json} artifact carries, for the experiments that
    have one (E21, E22, E24, E26: per-trial or per-row detail). *)

val all : entry list
(** E1 through E26, in order. *)

val find : string -> entry option
(** Look up by case-insensitive id ("e9" finds E9). *)

val default_seed : int
