(** The E24 adversarial battery: fuzzed soundness, enumerated
    completeness, replayable artifacts.

    The object under test is {!Msgnet.Accountability}: the two-threshold
    quorum vote over the signed transport plus its post-hoc audit.  The
    battery establishes the two sides of accountability —

    - {e soundness}: over arbitrary lying plans, no honest process is
      ever accused ({!fuzz} — random plans; campaigns in the test suite
      and CLI run ≥ 10k derived histories);
    - {e completeness}: every forced fork names at least [f + 1]
      provably-faulty processes ({!exhaustive} — the entire per-receiver
      vote-strategy space at small [n], a finite proof rather than a
      sample).

    Counterexamples (should either side ever fail) and interesting fork
    witnesses are persisted as [e24-byz/1] JSON artifacts, replayable
    like E20's counterexample files. *)

type witness = {
  n : int;
  f : int;
  seed : int;  (** Delay-schedule seed for {!Msgnet.Accountability.run}. *)
  inputs : int array;
  strategies : Msgnet.Accountability.strategy option array;
}
(** Everything needed to reproduce one accountability execution. *)

val run_witness : witness -> Msgnet.Accountability.outcome

val forks : witness -> bool
(** Whether the execution forks two honest deciders. *)

(** {1 Fuzzing} *)

type fuzz = {
  trials : int;
  forked : int;  (** Trials whose execution forked honest deciders. *)
  tampered : int;  (** Total tampered sends across all trials. *)
  violations : int;  (** Trials whose verdict was not [Accountable]. *)
  first_violation : (int * witness * Msgnet.Accountability.verdict) option;
      (** Lowest failing trial index with its witness — the artifact to
          save.  [None] is the expected outcome. *)
}

val fuzz :
  ?jobs:int ->
  ?n:int ->
  ?f:int ->
  ?byz:int ->
  ?forge:bool ->
  seed:int ->
  trials:int ->
  unit ->
  fuzz
(** A {!Runtime.Campaign} of random witnesses (defaults n=4, f=1,
    byz=2): binary inputs, fork-biased vote plans, optionally forged
    certificates.  Each trial derives from [(seed, trial)], so the
    result — including [first_violation] — is bit-identical at every
    [-j]. *)

(** {1 Exhaustive enumeration} *)

type exhaustive = {
  combos : int;  (** Strategy combinations enumerated. *)
  runs : int;  (** [combos × seeds] executions. *)
  forked : int;
  min_accused_on_fork : int option;
      (** The fewest processes any fork convicted — completeness holds
          iff this is [≥ f + 1] (and it is [None] only if nothing
          forked, which would make the claim vacuous; the tests require
          [forked > 0]). *)
  violations : int;
  first_violation : (int * witness * Msgnet.Accountability.verdict) option;
}

val exhaustive :
  ?jobs:int ->
  ?seeds:int ->
  ?n:int ->
  ?f:int ->
  ?byz:int ->
  seed:int ->
  unit ->
  exhaustive
(** Every per-receiver vote strategy over the binary domain for every
    Byzantine member (defaults n=4, f=1, byz=2: 16² = 256 combinations),
    each under [seeds] (default 3) derived delay schedules.  At these
    defaults this is proof-grade: the whole strategy space is covered,
    so [violations = 0] means no lying plan in the space can fork the
    vote without surrendering ≥ f+1 members to the audit. *)

(** {1 Replayable artifacts ([e24-byz/1])} *)

type artifact = {
  witness : witness;
  expected_fork : bool;
  expected_accused : Rrfd.Pset.t;
}

val of_outcome : witness -> Msgnet.Accountability.outcome -> artifact
(** Pin the outcome's fork flag and accused set as the expectation. *)

val codec : artifact Report.Codec.t
(** Schema [e24-byz] version 1, written pretty-printed.  [Error] on
    malformed input, wrong [kind] or unsupported [version], and on a
    witness {!run_witness} would reject: [f] outside [\[0, n)], an
    input, strategy or vote vector not of length [n], or a process set
    naming a process outside [0..n-1]. *)

type replay = {
  outcome : Msgnet.Accountability.outcome;
  verdict : Msgnet.Accountability.verdict;
  fork_match : bool;
  accused_match : bool;
}

val replay : artifact -> replay
(** Re-run the witness and compare against the pinned expectation. *)

val reproduced : replay -> bool
(** Fork flag and accused set both match. *)

val binary_inputs : int -> int array
(** [i mod 2] — the two-value input split every battery entry point
    uses (forks need honest disagreement to exist). *)

val derive_witness :
  n:int -> f:int -> byz:int -> forge:bool -> rng:Dsim.Rng.t -> witness
(** One random witness exactly as {!fuzz} draws it — exposed so the CLI
    can regenerate and save the artifact for any (seed, trial) pair. *)
