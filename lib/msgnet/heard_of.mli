(** Heard-of extraction: from asynchronous executions to fault histories.

    The Heard-Of line of work (Shimi et al.; Damian–Drăgoi–Widder) derives
    a round-by-round "who did I hear from" record out of an asynchronous
    execution; the complement of that record is exactly the paper's fault
    history [{D(i,r)}].  This module is that bridge made executable: the
    {!Round_layer} feeds a recorder as rounds complete, {!to_history}
    materialises the {!Rrfd.Fault_history}, {!classify} asks which of the
    paper's predicates P1–P5 the network adversary actually induced, and
    {!replay_decisions} re-executes the extracted history on the abstract
    engine — the differential oracle: network decisions and engine
    decisions must agree bit-for-bit. *)

type t
(** A per-process, round-ordered record of heard-from sets. *)

val create : n:int -> t
(** An empty record.  Rows grow by doubling, so {!note} is amortised
    O(1).
    @raise Invalid_argument if [n] is out of {!Rrfd.Pset} range. *)

val note :
  t -> Rrfd.Proc.t -> round:int -> ?lied:Rrfd.Pset.t -> heard:Rrfd.Pset.t ->
  unit -> unit
(** [note t i ~round ~heard ()] records that [i] completed [round] having
    heard the round-[round] messages of exactly [heard].  Rounds must be
    noted in order: [round] must be [completed t i + 1].  [lied] (default
    empty) names the subset of [heard] whose content differed from the
    sender's canonical round-[round] emission — "lied to [i]" as opposed
    to "silent toward [i]", the distinction the Byzantine-aware
    predicates need.
    @raise Invalid_argument on out-of-order rounds, if [heard] mentions a
    process outside the system, or if [lied ⊄ heard] (a lie is only
    observable on a message that arrived). *)

val lied : t -> proc:Rrfd.Proc.t -> round:int -> Rrfd.Pset.t option
(** The recorded lied-to set, or [None] if [proc] never completed
    [round]. *)

val completed : t -> Rrfd.Proc.t -> int
(** Number of rounds [i] has completed. *)

val heard : t -> proc:Rrfd.Proc.t -> round:int -> Rrfd.Pset.t option
(** The recorded heard-from set, or [None] if [i] never completed [round]. *)

val rounds : t -> int
(** [max_i completed t i] — the extracted history's length. *)

val to_history : t -> Rrfd.Fault_history.t
(** The extracted fault history: [D(i,r)] is the complement of [i]'s
    heard-from set for rounds [i] completed, and [∅] for rounds it never
    reached (an unreached round constrains nothing — the process was
    merely slow, which the engine models as hearing everyone). *)

val to_lie_history : t -> Rrfd.Fault_history.t
(** The lie history: [D(i,r)] is the set of processes whose round-[r]
    message reached [i] with non-canonical content, [∅] for unreached
    rounds.  Disjointly complements {!to_history}: silence and lying are
    different ways of being bad toward [i], and a crash never appears
    here. *)

val to_byz_history : t -> Rrfd.Fault_history.t
(** {!Rrfd.Fault_history.union} of {!to_history} and {!to_lie_history} —
    [D(i,r)] = "was bad toward [i] in round [r], silently or by lying".
    This fused view is what the Byzantine-aware predicates
    ({!Rrfd.Predicate.byzantine_round_bound},
    {!Rrfd.Predicate.eventual_honest_kernel}) are meant to judge. *)

val paper_predicates : f:int -> (string * Rrfd.Predicate.t) list
(** The paper's ladder [P1–P5] with resilience [f]: omission, crash,
    asynchronous (|D| ≤ f), shared-memory, snapshot. *)

val classify : f:int -> Rrfd.Fault_history.t -> (string * bool) list
(** Which of {!paper_predicates} hold of the history — the answer to
    "which model did this adversary induce?". *)

val replay_decisions :
  algorithm:('s, 'm, 'out) Rrfd.Algorithm.t ->
  Rrfd.Fault_history.t ->
  'out option array
(** Run the extracted history through {!Rrfd.Engine.states_after} (exactly
    [Fault_history.rounds] rounds, the pinned schedule) and apply the
    algorithm's decision function to the final states.  Because the round
    layer is communication-closed — a round-[r] message is emitted from
    the sender's state after [r-1] completed rounds, whatever the wall
    clock says — this must reproduce the network execution's decisions. *)
