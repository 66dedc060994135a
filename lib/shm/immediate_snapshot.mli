(** One-shot immediate snapshot (the participating-set protocol).

    The Borowsky–Gafni level-descent algorithm: a process starts at level
    [n], writes its level, scans everyone's levels, and returns the set of
    processes at or below its level once that set is at least as large as
    the level (otherwise it descends one level and retries).  Outputs are
    {e views} [V_i ∋ p_i] satisfying

    - {b self-inclusion}: [p_i ∈ V_i];
    - {b comparability}: [V_i ⊆ V_j ∨ V_j ⊆ V_i];
    - {b immediacy}: [p_j ∈ V_i ⇒ V_j ⊆ V_i].

    One round of item 5's iterated model is exactly one such one-shot
    object: [D(i,r) = S − V_i] then satisfies the snapshot predicate
    (with [f = n − 1]; resilience-bounded variants additionally wait, which
    {!Detector_gen.iis} models at the predicate level). *)

type result = {
  views : Rrfd.Pset.t array;  (** [views.(i)] is [V_i]. *)
  steps : int;  (** Register operations executed in total. *)
}

val run_once : n:int -> schedule:Exec.strategy -> result
(** Execute the protocol once among [n] processes under the given
    interleaving.  Runs on a specialized per-process state machine (one
    register operation per scheduler step, no fibers) whose operation and
    RNG-draw sequences are identical to the textbook body on the generic
    fiber executor ({!Snapshot.Make}); the test suite keeps that
    reference as an oracle and checks that seeded schedules yield
    bit-identical views and step counts on either path. *)

val check_views : Rrfd.Pset.t array -> string option
(** [None] iff the views satisfy self-inclusion, comparability and
    immediacy; otherwise a description of the earliest violation.  Exposed
    for the property tests and the E4 experiment. *)

val to_fault_sets : Rrfd.Pset.t array -> Rrfd.Pset.t array
(** [D(i) = S − V_i]. *)
