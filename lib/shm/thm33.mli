(** Theorem 3.3: k-set consensus plus SWMR memory implements the k-set
    RRFD.

    The construction, per round: process [i] (1) writes its emitted value to
    its value cell, (2) proposes its identifier to a k-set consensus object
    and receives an identifier [j], (3) writes [j] to its choice cell,
    (4) collects all choice cells; [Q_i] is the set of identifiers read and
    the fault set is [D(i) = S − Q_i].  Fault sets can differ only on the
    at most [k] chosen identifiers, and all contain the identifier whose
    choice cell was written first, so [|⋃D − ⋂D| ≤ k − 1 < k] — predicate
    of Section 3.  Every member of [Q_i] wrote its value cell before its
    choice cell, so the emitted values of unsuspected processes are
    readable. *)

type result = {
  fault_sets : Rrfd.Pset.t array;  (** [D(i)] per process. *)
  chosen : int array;  (** Identifier each process got from the object. *)
  values_readable : bool;
      (** Whether every collected identifier's value cell was readable —
          the theorem's side condition (always true). *)
  steps : int;
}

val one_round :
  ?rng:Dsim.Rng.t -> n:int -> k:int -> schedule:Exec.strategy -> unit -> result
(** Execute one round of the construction under the given interleaving,
    with a fresh adversarial k-set object. *)
