(** Cross-model emulations from Section 2.

    Two constructions share one engine, the {e two-round heard-of closure}:
    run two RRFD rounds in which every process first emits a token and then
    emits the set of processes it heard from; the simulated fault set is
    everything a process did not hear of directly or through a relay.

    - Item 4: if [2f < n], two rounds of the item-3 asynchronous
      message-passing RRFD implement one round of the shared-memory RRFD —
      every round-1 quorum of [n − f] processes intersects every other, so
      some process heard by a majority is relayed to everybody
      (predicate 4), and each simulated fault set stays within [f]
      (predicate 3).
    - Item 3: if [f < t] and [2t < n], two rounds of system B implement one
      round of system A — a process that missed up to [t] still hears some
      process outside the weak set [Q], whose round-1 view misses at most
      [f].

    The module also implements item 4's alternative-predicate analysis: the
    "does-not-know" cycle argument showing that under
    [Predicate.shared_memory_alt] some process's round-1 value is known by
    all within [n] rounds, and the machinery to test the paper's conjecture
    that two rounds suffice. *)

type closure_result = {
  simulated : Pset.t array;
      (** The simulated round's fault sets [D_sim(i)]. *)
  underlying : Fault_history.t;  (** The two underlying rounds. *)
}

val two_round_closure : n:int -> detector:Detector.t -> closure_result
(** Run the construction for one simulated round on a fresh history. *)

val knowledge_rounds : Fault_history.t -> int option
(** Given a fault history, propagate knowledge of round-1 emissions —
    process [i] learns everything known by every process outside [D(i,r)] —
    and return the first round by which {e some} process's round-1 emission
    is known to all, if it happens within the history. *)

val known_by_all_observed :
  n:int ->
  detector:Detector.t ->
  max_rounds:int ->
  int option * Fault_history.t
(** Drive a detector for [max_rounds] rounds and report the first round
    at which someone is known by all, with the materialised history
    (always [max_rounds] long), so callers can account the work via
    {!Counters.of_history}. *)
