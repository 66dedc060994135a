(** First-class safety properties of RRFD executions.

    The paper's theorems all have the shape "every history satisfying
    predicate [P] makes algorithm [A] satisfy property [S]": {!Predicate}
    captures [P], {!Sut} captures [A], and this module captures [S] — the
    decision-vector side of the claim.  A property inspects an observed
    execution ({!obs}) and returns the earliest violated clause, so the
    model checker can hunt for predicate-satisfying histories that refute
    the theorem.

    All decisions are carried as [int].  Adopt-commit outcomes are packed
    through {!Rrfd.Adopt_commit.encode} so that adopt-commit executions flow through
    the same checker pipeline as agreement tasks. *)

type obs = {
  n : int;
  inputs : int array;
  decisions : int option array;
  decision_rounds : int option array;
  rounds_used : int;
  history : Rrfd.Fault_history.t;
  violation : string option;
      (** The engine's online predicate check, when one tripped.  The
          checker treats this as a generator bug, not a property failure. *)
}
(** What one execution exposes to properties. *)

type t
(** A named safety property. *)

val name : t -> string

val doc : t -> string

val check : t -> obs -> string option
(** [check p o] is [None] when the execution satisfies [p], otherwise a
    description of the violation. *)

val make : name:string -> doc:string -> (obs -> string option) -> t

val first_failure : t list -> obs -> (t * string) option
(** Earliest failing property in list order. *)

(** {1 The stock properties} *)

val k_agreement : k:int -> t
(** At most [k] distinct values decided (undecided processes are ignored —
    {!termination} is the property that flags those). *)

val agreement : t
(** [k_agreement ~k:1]. *)

val validity : t
(** Every decided value is the input of some process. *)

val termination : t
(** Every process decided within the executed rounds. *)

val adopt_commit_coherence : t
(** Decisions are {!Rrfd.Adopt_commit.encode}-packed adopt-commit outcomes and they
    satisfy the full adopt-commit specification (termination, convergence,
    agreement, validity) via {!Rrfd.Adopt_commit.check_outcomes}. *)
