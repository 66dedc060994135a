(** Systems under test: an algorithm packaged for the model checker.

    A SUT is a {!Protocols.Catalog} entry plus the horizon the fuzzer
    draws: {!run} observes one engine execution as a {!Property.obs} and
    {!transcript} renders it as a full {!Rrfd.Trace}, so the checker can
    drive any of the repo's protocols uniformly.  Inputs are always
    [Tasks.Inputs.distinct n] (every process proposes its own id, the
    hardest case for agreement), which keeps counterexamples meaningful
    after the shrinker merges processes away. *)

type t

val name : t -> string

val rounds : t -> int
(** Rounds the protocol needs to terminate — the default history length the
    fuzzer draws. *)

val of_protocol : Protocols.Catalog.t -> t
(** Derive a SUT from a protocol-catalog entry — name, horizon (at the
    entry's default [n]/[f]) and printers come from the catalog, and every
    run goes through {!Protocols.Catalog.run_engine}.  This is how every
    SUT is defined; the catalog is the single definition site for
    algorithms. *)

val default_inputs : n:int -> int array
(** [Tasks.Inputs.distinct n]. *)

val run :
  t ->
  n:int ->
  max_rounds:int ->
  check:Rrfd.Predicate.t ->
  detector:Rrfd.Detector.t ->
  Property.obs
(** One execution, observed.  The engine stops when every process decided
    or after [max_rounds] rounds, and re-checks [check] online so a
    detector straying outside its predicate is reported in
    [obs.violation]. *)

val run_padded :
  t ->
  n:int ->
  rounds:int ->
  check:Rrfd.Predicate.t ->
  detector:Rrfd.Detector.t ->
  Property.obs
(** {!run} under [detector] for the first [rounds] rounds, then
    failure-free ({!Rrfd.Detector.quiet_after}) up to
    [max rounds (rounds sut)] — the padding {!run_history} applies.  The
    engine is deterministic and rounds are communication-closed, so the
    observation equals [run_history] of the run's first [rounds] rounds
    (its [Fault_history.truncate]): a live run padded this way needs no
    replay to be judged. *)

val run_history :
  t -> check:Rrfd.Predicate.t -> Rrfd.Fault_history.t -> Property.obs
(** Replay a pinned fault history ({!Rrfd.Detector.of_history}).  A
    history shorter than the SUT's horizon is padded with failure-free
    rounds up to {!rounds} — so shrinking a round away means "the adversary
    goes quiet", never "the protocol is starved of rounds" — and the
    engine's online check rejects paddings the predicate forbids.
    Deterministic: equal histories produce equal observations, which is
    what makes counterexample replay and shrinking sound. *)

val pp_out : t -> Format.formatter -> int -> unit

val transcript :
  t -> check:Rrfd.Predicate.t -> Rrfd.Fault_history.t -> string
(** The rendered {!Rrfd.Trace} of replaying the history — what
    [check --replay] prints. *)
