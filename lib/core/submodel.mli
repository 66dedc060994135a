(** The submodel relation between RRFD systems (Section 2).

    [A] is a submodel of [B] iff [P_A ⇒ P_B]: every fault history allowed by
    [A] is allowed by [B], so [A] trivially implements [B].  Implication is
    checked two ways: exhaustively over every history of a small system
    (sound and complete for that size) and by sampling histories from a
    generator (a cheap refutation search at larger sizes). *)

type verdict =
  | Implies  (** No counterexample found in the searched space. *)
  | Counterexample of Fault_history.t
      (** A history satisfying the left predicate but not the right. *)

val round_assignments : n:int -> Pset.t array list
(** Every way to assign one proper subset of the system to each process —
    all possible single rounds, in the fixed order every exhaustive walk
    ({!check_exhaustive}, {!lattice}, [Adversary.Enumerate]) follows. *)

val check_exhaustive : n:int -> rounds:int -> Predicate.t -> Predicate.t -> verdict
(** [check_exhaustive ~n ~rounds a b] enumerates every fault history of at
    most [rounds] rounds over [n] processes (every process's fault set
    ranging over all proper subsets), pruning prefixes that already violate
    [a], and reports the first history satisfying [a] but violating [b].
    Exponential: intended for [n ≤ 3], [rounds ≤ 2]
    ([((2^n − 1)^n)^rounds] histories). *)

val check_sampled :
  Dsim.Rng.t ->
  samples:int ->
  rounds:int ->
  gen:(Dsim.Rng.t -> Detector.t) ->
  n:int ->
  Predicate.t ->
  Predicate.t ->
  verdict
(** [check_sampled rng ~samples ~rounds ~gen ~n a b] draws [samples]
    detectors from [gen], runs each for [rounds] rounds, discards histories
    that do not satisfy [a] (a generator bug), and reports any that violate
    [b]. *)

(** {1 The named-predicate lattice}

    Answering many order queries over the same predicate vocabulary with
    {!check_exhaustive} repeats the exponential history walk per pair.
    {!lattice} walks the space {e once} and records, per named predicate,
    the set of histories it accepts; every subsequent query (implication,
    equivalence, redundant conjuncts, the weakest members) is bitset
    algebra.  Sound and complete for the enumerated size, exactly like
    {!check_exhaustive}: intended for [n ≤ 3], [rounds ≤ 2], or [n = 4]
    with one round.

    The walk evaluates one history per orbit of the process renamings
    (S_n acting by [D'(π i, r) = π(D(i, r))]): the orbit's first history
    in {!round_assignments}' depth-first order.  It never enters the
    subtree under any other history, so it evaluates 2,341 of the 50,626
    histories at [n = 4] over one round and 19,916 of the 117,993 at
    [n = 3] over two. *)

type lattice

val lattice : n:int -> rounds:int -> (string * Predicate.t) list -> lattice
(** [lattice ~n ~rounds named] evaluates every named predicate on one
    history per renaming orbit of the histories of at most [rounds]
    rounds over [n] processes (each process's round fault set ranging over
    all proper subsets, the empty history included).  Names are the query
    keys and must be distinct.

    Precondition: every predicate is invariant under renaming processes
    ([holds p h = holds p h'] whenever [h'] renames [h]), so its accept
    set is a union of orbits and the queries below answer exactly as over
    every history.  Every {!Check.Spec} predicate is.
    @raise Invalid_argument on an empty or duplicate-named vocabulary. *)

val implies : lattice -> string -> string -> bool
(** [implies l a b]: every history of the space satisfying [a] satisfies
    [b] — the submodel order of Section 2 restricted to the vocabulary.
    All queries below raise [Invalid_argument] on names outside it. *)

val equivalent : lattice -> string -> string -> bool
(** Implication both ways: the two names accept the same history set. *)

val strictly_stronger : lattice -> string -> string -> bool
(** [strictly_stronger l a b]: [a]'s history set is a proper subset of
    [b]'s. *)

val minimal_conjuncts : lattice -> string list -> string list
(** Drop every name implied by the conjunction of the others, in one
    deterministic left-to-right pass: a minimal sub-vocabulary with the
    same meet, used to {e name} a derived predicate without changing it. *)

val weakest : lattice -> string list -> string list
(** The maximal (weakest) members of a set of names: those not strictly
    stronger than any other member.  Applied to the refuted candidates of
    a derivation this is the frontier — refuting it refutes everything
    strictly stronger. *)
