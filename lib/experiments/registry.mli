(** The experiment registry: every table the harness can regenerate. *)

type entry = {
  id : string;
  title : string;
  run : seed:int -> trials:int option -> jobs:int option -> Table.t;
}
(** [jobs] is the campaign worker-domain count ([None] = all cores); it
    never changes a table, only how fast it is produced.  Serial
    experiments ignore it. *)

val all : entry list
(** E1 through E21, in order. *)

val find : string -> entry option
(** Look up by case-insensitive id ("e9" finds E9). *)

val default_seed : int
