(** RRFD predicates: properties of fault histories.

    A round-by-round fault detector {e is} a predicate over the family
    [{D(i,r)}] (Sec. 1 of the paper): the more histories it allows, the more
    adversarial the system.  This module defines the paper's named predicates
    and the combinators used to compare models.

    All the paper's predicates are prefix-closed: every prefix of a valid
    history is valid, so predicates can be re-checked after each round and a
    violation report names the earliest offending round. *)

type t
(** A predicate over fault histories. *)

val name : t -> string

val doc : t -> string
(** One-line description, quoting the paper's definition. *)

val holds : t -> Fault_history.t -> bool
(** [holds p h] is true iff the (prefix) history [h] satisfies [p] —
    always [explain p h = None], but decided without building a report.
    For the named predicates below (on universes small enough for
    single-word {!Pset}s) it allocates nothing. *)

val explain : t -> Fault_history.t -> string option
(** [explain p h] is [None] when [holds p h], otherwise a human-readable
    description of the earliest violation. *)

val check_round : t -> Fault_history.t -> round:int -> string option
(** [check_round p h ~round] re-checks [p] after [h] grew to [round]
    rounds, using the predicate's round-local incremental form when it
    has one and the full {!explain} scan otherwise.  Sound — identical
    to [explain p h] — under the executor's calling convention: the
    history grew one round at a time, [round = Fault_history.rounds h],
    and every earlier call returned [None].  Outside that discipline use
    {!explain}. *)

val make :
  ?incr:(Fault_history.t -> round:int -> string option) ->
  ?holds:(Fault_history.t -> bool) ->
  name:string ->
  doc:string ->
  (Fault_history.t -> string option) ->
  t
(** [make ~name ~doc explain] builds a predicate from a violation finder.
    [incr], when given, is the round-local form {!check_round} uses; it
    must equal [explain] whenever [explain] was [None] on every proper
    prefix (the {!check_round} precondition).  [holds], when given, is
    the verdict {!holds} returns; it must equal [explain h = None] on
    every history (the default computes exactly that). *)

val conj : ?name:string -> t -> t -> t
(** Conjunction: both predicates must hold. *)

val disj : ?name:string -> t -> t -> t
(** Disjunction: at least one predicate must hold; a violation is reported
    only when both fail (quoting the left one's reason). *)

val always : t
(** The trivial predicate satisfied by every history (the unconstrained,
    maximally adversarial RRFD — nothing is solvable under it). *)

(** {1 The paper's named predicates} *)

val no_self_suspicion : t
(** [∀ i, r. p_i ∉ D(i,r)] — part of predicates 1, 2 and 5. *)

val omission : f:int -> t
(** Predicate (1), item 1: synchronous message passing with at most [f]
    send-omission faults: no self-suspicion and
    [|⋃_{r>0} ⋃_i D(i,r)| ≤ f]. *)

val crash_closure : t
(** Predicate (2) alone: [∀ r > 0, ∀ p_k. ⋃_i D(i,r) ⊆ D(k, r+1)] — once any
    process misses [p_j], everyone misses [p_j] in later rounds. *)

val crash : f:int -> t
(** Item 2: synchronous with at most [f] crash faults:
    [omission ~f] ∧ {!crash_closure}. *)

val async_resilient : f:int -> t
(** Predicate (3), item 3: asynchronous message passing with at most [f]
    crash failures: [∀ r, i. |D(i,r)| ≤ f]. *)

val async_mixed : f:int -> t:int -> t
(** Item 3's system B: per round there is a set [Q] with [|Q| ≤ t] such that
    processes outside [Q] miss at most [f] and processes inside [Q] miss at
    most [t].  Strictly weaker than [async_resilient ~f] when [f < t]. *)

val someone_seen_by_all : t
(** Predicate (4) alone: [∀ r. |⋃_i D(i,r)| < n] — each round at least one
    process is declared faulty to nobody. *)

val shared_memory : f:int -> t
(** Item 4: asynchronous SWMR shared memory with at most [f] crash faults:
    [async_resilient ~f] ∧ {!someone_seen_by_all}. *)

val antisymmetric_misses : t
(** Item 4's alternative ingredient: [p_j ∈ D(i,r) ⇒ p_i ∉ D(j,r)]. *)

val shared_memory_alt : f:int -> t
(** The alternative shared-memory predicate discussed in item 4:
    [async_resilient ~f] ∧ {!someone_seen_by_all} ∧
    {!antisymmetric_misses}. *)

val snapshot : f:int -> t
(** Predicate of item 5 (atomic snapshot / iterated immediate snapshot):
    [async_resilient ~f] ∧ no self-suspicion ∧ per-round comparability
    [D(i,r) ⊆ D(j,r) ∨ D(j,r) ⊆ D(i,r)]. *)

val detector_s : t
(** Item 6: the RRFD counterpart of failure detector S:
    [∃ p_j. p_j ∉ ⋃_{r>0} ⋃_i D(i,r)]; equivalently
    [|⋃_{r>0} ⋃_i D(i,r)| < n]. *)

val k_set : k:int -> t
(** Section 3's detector: [∀ r. |⋃_i D(i,r) − ⋂_i D(i,r)| < k].  For [k = 1]
    the detectors at different processes never disagree. *)

val identical_views : t
(** Equation (5), Sec. 5: [∀ r, i, j. D(i,r) = D(j,r)].  Implies
    [k_set ~k:1]. *)

val byzantine_round_bound : f:int -> t
(** Byzantine-aware variant for E24: [∀ r. |⋃_i D(i,r)| ≤ f].  Applied to
    the fused silent∪lied history ({!Fault_history.union}) this says at
    most [f] distinct processes misbehave — stay silent toward someone or
    lie to someone — in any single round.  RRFDs only report suspicion
    sets, so the same predicate machinery covers "lied" exactly as it
    covers "late"; this is the per-round budget the accountability
    construction assumes of the honest majority. *)

val eventual_honest_kernel : k:int -> t
(** Byzantine-aware variant for E24:
    [∃ r₀. |⋃_{r≥r₀} ⋃_i D(i,r)| ≤ n − k] — from some round on, a kernel
    of at least [k] processes is never suspected or lied about.  On a
    finite prefix the suffix union is monotone in its start round, so
    this holds iff the final round leaves [k] processes clean. *)

val not_all_faulty : t
(** Sanity property noted in Sec. 1: [D(i,r) ≠ S] (not every process can be
    late).  Holds automatically under most named predicates; exposed for the
    enumeration experiments. *)
