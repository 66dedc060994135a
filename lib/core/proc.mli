(** Process identifiers.

    Processes are numbered [0 .. n-1] within a system of [n] processes.  The
    identifier order matters: several of the paper's algorithms (e.g. the
    one-round k-set agreement of Theorem 3.1) break ties by the lowest
    process identifier. *)

type t = int
(** A process identifier; always non-negative. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as [p3]. *)
