(** The schedule-space model checker.

    Two search modes over the space of predicate-satisfying fault
    histories, both hunting for one that makes a {!Sut} violate a
    {!Property}:

    - {!fuzz} — Monte-Carlo: [trials] independent trials, each drawing a
      history ({!Gen}, or a constructive {!Rrfd.Detector} generator) from a
      per-trial RNG derived from [(seed, trial)].  Trials run across
      domains through {!Runtime.Campaign.search}, and the reported
      counterexample is always the one of the lowest failing trial index —
      bit-identical at every [-j].
    - {!exhaustive} — small-scope: every history of the given size, via
      {!Adversary.Enumerate}, sharded across domains by first-round
      assignment through {!Runtime.Pool.search} with the same
      deterministic-first-hit guarantee.

    Either way the raw failing history is handed to {!Shrink.minimize}, so
    what comes out is a minimal legal history refuting the property. *)

type counterexample = {
  sut : string;  (** {!Sut.name} of the refuted system. *)
  n : int;  (** System size after shrinking. *)
  inputs : int array;  (** The inputs used ([Tasks.Inputs.distinct n]). *)
  history : Rrfd.Fault_history.t;  (** Minimal predicate-satisfying history. *)
  property : string;  (** Name of the violated property. *)
  failure : string;  (** The property's violation message. *)
  decisions : int option array;  (** Decision vector under [history]. *)
  trial : int;  (** Failing trial index; [-1] for exhaustive mode. *)
  shrink_steps : int;  (** Accepted shrink steps. *)
}

type fuzz_config = {
  n : int;  (** System size to fuzz at. *)
  rounds : int;  (** History length to draw. *)
  trials : int;
  seed : int;
  jobs : int option;  (** Worker domains; [None] = all cores. *)
  attempts : int;  (** Per-round rejection budget ({!Gen.history}). *)
}

val test_history :
  sut:Sut.t ->
  predicate:Rrfd.Predicate.t ->
  properties:Property.t list ->
  Rrfd.Fault_history.t ->
  Property.obs * (Property.t * string) option
(** Replay one pinned history and evaluate the properties.  A history whose
    replay trips the engine's online predicate check is never counted as a
    property failure (that would blame the algorithm for an illegal
    adversary).  This is the judge wherever there is no live run to judge:
    rejection-sampled and enumerated histories, shrink candidates, and the
    final replay of a counterexample.  Constructive trials are judged on
    their own run instead ({!live_trial}). *)

val live_trial :
  sut:Sut.t ->
  predicate:Rrfd.Predicate.t ->
  properties:Property.t list ->
  n:int ->
  rounds:int ->
  Rrfd.Detector.t ->
  Rrfd.Fault_history.t * Property.obs * (Property.t * string) option
(** One constructive trial: run the SUT live under the drawn detector for
    [rounds] rounds, failure-free after that up to the SUT's horizon
    ({!Sut.run_padded}), and judge the properties on that run by the rule
    {!test_history} uses.  Returns the drawn history (the run's first
    [rounds] rounds — the candidate {!fuzz} shrinks), the live observation
    and the verdict.  Because the tail is exactly the replay's padding,
    both equal what [test_history] of the drawn history returns, so the
    trial runs the SUT once instead of twice. *)

val fuzz :
  fuzz_config ->
  sut:Sut.t ->
  predicate:Rrfd.Predicate.t ->
  ?generator:(Dsim.Rng.t -> n:int -> Rrfd.Detector.t) ->
  properties:Property.t list ->
  unit ->
  counterexample option
(** Monte-Carlo search.  Without [generator], histories are
    rejection-sampled against the predicate and each is judged by
    {!test_history}.  With it, each trial is a {!live_trial} under
    [generator rng ~n] (constructive sampling): the SUT runs once, the
    properties are judged on that run, and the drawn history is the
    candidate ({!Rrfd.Detector_gen} generators match their predicates by
    construction).  A failing candidate is shrunk and replayed by
    {!test_history}, so the counterexample describes exactly what its
    artifact replays.  Returns the shrunk counterexample of the lowest
    failing trial, or [None] if no trial failed. *)

val exhaustive :
  ?jobs:int ->
  n:int ->
  rounds:int ->
  sut:Sut.t ->
  predicate:Rrfd.Predicate.t ->
  properties:Property.t list ->
  unit ->
  counterexample option
(** Exhaustive small-scope search over every [rounds]-round [n]-process
    history satisfying the predicate.  The space is
    [((2^n − 1)^n)^rounds] before pruning — keep [n ≤ 4] and
    [rounds ≤ 2], like E13/E14 do ([check --exhaustive] refuses
    [n > 4]). *)
