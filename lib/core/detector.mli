(** Round-by-round fault detectors as adversaries.

    A detector chooses, for each round, the fault sets [D(i,r)] handed to
    every process.  The paper views the RRFD as an adversary that is part of
    the system: the more histories it can produce, the harder the model.
    Detectors here may consult the fault history so far, so stateless
    detectors are pure functions of the history; detectors with private state
    (e.g. a sampled crash schedule) close over it.

    Constructive generators for each named predicate live in the [adversary]
    library; this module provides the type and the basic constructors the
    core algorithms and engine need. *)

type t
(** A fault-detector adversary for a fixed number of processes. *)

val make : name:string -> (Fault_history.t -> Pset.t array) -> t
(** [make ~name next] builds a detector; [next history] must return the
    fault sets for round [Fault_history.rounds history + 1], one per
    process. *)

val next : t -> Fault_history.t -> Pset.t array
(** Produce the next round's fault sets.  The engine validates the result's
    shape; predicate conformance is checked separately.

    {b Buffer contract.}  The returned array is valid until the next
    query of the same detector and must not be mutated: generators reuse
    one output array across rounds ({!Detector_gen.async},
    {!Detector_gen.k_set}), and {!constant} and the quiet tail of
    {!quiet_after} hand out one shared array.  A caller that keeps a
    round past the next query must copy it (as [Fault_history.append]
    does). *)

val none : t
(** The failure-free detector: [D(i,r) = ∅] always (perfect synchrony). *)

val of_schedule : ?after:Pset.t array -> Pset.t array list -> t
(** [of_schedule rounds] replays the given per-round fault sets, first round
    first; once the schedule is exhausted it keeps returning [after]
    (default: the last scheduled round, or all-empty if the schedule is
    empty).  Array lengths must match the engine's [n]. *)

val quiet_after : n:int -> rounds:int -> t -> t
(** [quiet_after ~n ~rounds d] is [d] for the first [rounds] rounds and
    failure-free afterwards; [d] is never queried past round [rounds].
    This is the one padding rule: {!of_history} pads a pinned history
    with it, and the model checker's live trials pad a drawn detector
    with it, so both run the same tail. *)

val of_history : Fault_history.t -> t
(** [of_history h] replays [h] pinned: round [r ≤ Fault_history.rounds h]
    gets [h]'s round-[r] fault sets, every later round is failure-free
    ({!quiet_after}).  The one way a recorded history becomes a
    detector — counterexample replay, the pinned differential oracle and
    trace rendering all use it. *)

val constant : n:int -> Pset.t array -> t
(** [constant ~n d] returns the same fault sets every round. *)

val map : name:string -> (Fault_history.t -> Pset.t array -> Pset.t array) -> t -> t
(** [map ~name f d] post-processes [d]'s output each round. *)
