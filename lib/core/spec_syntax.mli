(** The spec-string grammar: a bare [name] or [name:key=value,...] with
    non-negative integer values (e.g. ["kset:k=2"], ["drop:p=15"],
    ["deadline:ms=5"]).

    One parser serves every spec vocabulary in the repository — the
    checker's predicates, generators and properties ([Check.Spec]), the
    network adversary atoms ([Msgnet.Adversary]) and the live patience
    policies ([Live.Patience]).  Each caller keeps its own vocabulary,
    defaults and unknown-key checks; this module only splits the string
    and reads the values. *)

type _ value =
  | Int : int value  (** Values read as non-negative [int]s. *)
  | Int64 : int64 value  (** Values read as non-negative [int64]s. *)

val parse :
  ?lenient:bool ->
  'v value ->
  string ->
  (string * (string * 'v) list, string) result
(** [parse value spec] splits [spec] at its first [':'] into the name and
    the parameters, the parameters at [','] and each at ['='], and reads
    every value with {!value}.  Parameters come back last-written first,
    so [List.assoc_opt] sees the last binding of a repeated key.  [Error]
    names the spec and the offending pair or value.

    [~lenient:true] (default [false]) is the network adversary's reading:
    blanks around the name, keys and values are trimmed, and an empty
    parameter list (["drop:"]) reads as none. *)
