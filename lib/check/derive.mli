(** Derivation and two-sided certification of heard-of predicates from
    network adversary policies (E26).

    The E21 grid {e observes} which paper predicates each
    {!Msgnet.Adversary} policy happens to satisfy, seed by seed.  This
    module turns the observation into a characterisation, after the
    Shimi–Hurault–Queinnec programme (arXiv:2004.10619, 2011.12879):
    given a policy spec, find the {e strongest} predicate in the
    {!Check.Spec} vocabulary that every execution of the policy
    satisfies, and certify the answer two-sidedly —

    - {b upward (soundness)}: a fresh deterministic fuzz campaign of
      [certify_trials] executions (sharded through
      {!Runtime.Campaign.search}, so the verdict is identical at every
      [-j]) finds no execution violating the derived predicate;
    - {b downward (tightness)}: every candidate the derivation refuted
      comes with a concrete violating execution — the lowest-index
      observation trial that broke it — and, in [exhaustive] mode at
      small [n], every frontier member additionally gets a separating
      history found by {!Adversary.Enumerate} over the {e whole} space
      of derived-predicate histories: a proof, not a sample, that the
      derived predicate does not imply its stronger neighbour.

    The derived predicate is the conjunction of {e all} surviving
    candidates, so it is the strongest expressible answer by
    construction; the {!Rrfd.Submodel} lattice is used to {e name} it
    (redundant conjuncts dropped) and to reduce the refuted set to its
    weakest members (the frontier — refuting a predicate refutes
    everything strictly stronger than it). *)

type config = {
  n : int;
  f : int;  (** Round-layer resilience: rounds complete on [n − f]. *)
  rounds : int;  (** Simulated rounds per execution. *)
  observe_trials : int;  (** Executions the derivation itself looks at. *)
  certify_trials : int;  (** Fresh executions for the upward certificate. *)
  exhaustive : bool;
      (** Also prove tightness by enumeration — requires small [n]
          (the space is [((2^n − 1)^n)^rounds]; keep [n ≤ 4]). *)
  seed : int;
  jobs : int option;
}

val default_config : config
(** [n = 5], [f = 2], [rounds = 4], 2000 observation trials, 10000
    certification trials, [exhaustive = false], seed 26. *)

val candidates : n:int -> f:int -> string list
(** The searched vocabulary, as {!Check.Spec.predicate} specs
    instantiated for the system size: the parameterless paper predicates
    plus [async]/[omission]/[crash]/[shm]/[snapshot]/[kset]/… at the
    relevant [f] and [k] values.  Every future predicate added here is
    automatically placed by the next derivation. *)

type source =
  | Fuzz of int  (** Observation-campaign trial index that violated it. *)
  | Exhaustive  (** Found by full enumeration of the derived space. *)

type witness = {
  spec : string;  (** The refuted candidate. *)
  source : source;
  history : Rrfd.Fault_history.t;
      (** Satisfies the derived predicate, violates [spec]. *)
  reason : string;  (** [Predicate.explain] of the violation. *)
}

type outcome = {
  policy : string;
  cfg : config;
  cands : string list;  (** The vocabulary searched. *)
  sound : string list;  (** Candidates no observed execution violated. *)
  conjuncts : string list;
      (** Lattice-minimal naming of the meet of [sound] (same predicate,
          redundant members dropped). *)
  frontier : string list;
      (** Weakest refuted candidates: the strictly-stronger neighbours
          of the derived predicate within the vocabulary.  Refuted
          candidates indistinguishable from [true] at the lattice size
          (degenerate there, e.g. round-coupled predicates in a
          one-round lattice) are appended individually rather than
          allowed to dominate the order. *)
  witnesses : witness list;  (** One fuzz witness per refuted candidate. *)
  separations : witness list;
      (** One enumeration-backed witness per frontier member
          ([exhaustive] mode only). *)
  certified : bool;  (** The upward campaign found no violation. *)
  certify_violation : (int * Rrfd.Fault_history.t) option;
      (** Lowest-index certification trial violating the derived
          predicate, when [certified] is false. *)
  counters : Rrfd.Counters.t array;
      (** Per-observation-trial work accounting (not serialised). *)
}

val predicate_of : outcome -> Rrfd.Predicate.t
(** The derived predicate: the conjunction of [sound], named by
    [conjuncts]. *)

val induced_history :
  adversary:Msgnet.Adversary.t ->
  n:int ->
  f:int ->
  rounds:int ->
  rng:Dsim.Rng.t ->
  Rrfd.Fault_history.t * Rrfd.Counters.t
(** One policy execution: drive the round layer with the payload-free
    {!Msgnet.Round_layer.round_tags} over the damaged asynchronous
    network and extract the induced fault history, the one the
    full-information algorithm induces on the same draws (the benign
    projection — [byz:*] atoms change message {e content} only, never
    the delay schedule, so their derived predicate provably equals the
    benign policy's). *)

val lattice_for : cfg:config -> (Rrfd.Submodel.lattice, string) result
(** The {!Rrfd.Submodel.lattice} over {!candidates} for this config —
    share it across the derivations of a grid instead of rebuilding per
    policy.  Dimensions are the largest enumerable size at which the
    parameterised candidates stay non-vacuous: two rounds at [n' = 3],
    one round at [n' = 4] (used when [f = 2], so [|D| ≤ f] does not
    collapse to [true]). *)

val derive :
  ?lattice:Rrfd.Submodel.lattice ->
  cfg:config ->
  policy:string ->
  unit ->
  (outcome, string) result
(** Derive and certify the policy's predicate.  [lattice] lets callers
    share one {!Rrfd.Submodel.lattice} over the same [(n, f)] vocabulary
    across many derivations (the grid, the tests); when absent one is
    built at the {!lattice_for} dimensions.  [Error] on an unparseable
    policy spec, on [rounds < 1], on [f] outside [\[0, n)], and on
    [exhaustive] with [n > 4]. *)

val tight : outcome -> bool
(** Every refuted candidate has a witness, and — in [exhaustive] mode —
    every frontier member has an enumeration-backed separation. *)

val ok : outcome -> bool
(** [certified && tight]. *)

val pp : Format.formatter -> outcome -> unit
(** Human-readable derivation report. *)

(** {1 Replayable artifacts}

    Same discipline as {!Check.Artifact} and {!Check.Byz_check}: the
    JSON carries everything needed to re-check the claim from scratch.
    Schema [e26-derive] version 1. *)

val codec : outcome Report.Codec.t
(** Written compact.  [Error] on shape, kind or version mismatch, and on
    a seed that is not a decimal string ([counters] come back empty,
    [jobs] as [None]). *)

type replay = {
  loaded : outcome;
  witnesses_valid : bool;
      (** Every witness satisfies the derived predicate and violates its
          [spec]. *)
  fuzz_reproduced : bool;
      (** Re-running each fuzz witness's [(seed, trial)] reproduces its
          history bit-for-bit. *)
  separations_valid : bool;
      (** Every separation re-checks, and re-running the enumeration
          finds the identical history. *)
}

val replay : outcome -> (replay, string) result
(** Re-check a loaded artifact against the current code. *)

val reproduced : replay -> bool
