(** Counterexample artifacts: serialize, reload, re-execute.

    A counterexample is only worth anything if it survives the process that
    found it, so the checker persists each one as a small JSON document
    (kind [rrfd-counterexample], version 1): the spec strings that
    configured the run, the minimal history in
    {!Rrfd.Fault_history.to_string_compact} form, and the decision vector
    observed on it.  {!replay} reconstructs everything
    from the specs and re-executes the history deterministically — the
    replayed decision vector must match the recorded one bit for bit, at
    any [-j], or the artifact (or the code under test) has drifted. *)

type t = {
  version : int;
  sut : string;  (** {!Spec.sut} string. *)
  predicate : string;  (** {!Spec.predicate} string. *)
  properties : string list;  (** {!Spec.property} strings. *)
  seed : int;  (** Seed of the finding run ([0] for exhaustive). *)
  counterexample : Checker.counterexample;
}

val make :
  sut_spec:string ->
  predicate_spec:string ->
  property_specs:string list ->
  seed:int ->
  Checker.counterexample ->
  t

val record :
  sut_spec:string ->
  ?predicate_spec:string ->
  ?seed:int ->
  n:int ->
  history:Rrfd.Fault_history.t ->
  unit ->
  (t, string) result
(** Package an {e observed} history (e.g. one extracted from a live run)
    in the same artifact format, so [check --replay] validates recordings
    and counterexamples alike.  The decision vector is computed through
    {!Checker.test_history} — the exact path {!replay} re-executes — so a
    recording reproduces by construction; its empty [failure] field marks
    that the replay is expected to pass every property.
    [predicate_spec] defaults to ["true"]; [Error] if the spec strings do
    not parse or the history violates the predicate on replay. *)

val codec : t Report.Codec.t
(** Schema [rrfd-counterexample] version 1; [Error] on shape, kind or
    version mismatch.  Written pretty-printed: artifacts are meant to be
    read. *)

type replay = {
  obs : Property.obs;  (** The re-execution. *)
  failure : (string * string) option;
      (** Violated property (name, message) on replay, if any. *)
  failure_expected : bool;
      (** Whether the artifact recorded a failure (a counterexample) or a
          clean observation (a {!record}ing, empty [failure] field). *)
  decisions_match : bool;
      (** Replayed decision vector identical to the recorded one. *)
  transcript : string;  (** Full {!Rrfd.Trace} rendering of the replay. *)
}

val replay : t -> (replay, string) result
(** Re-execute the artifact.  [Error] only when a spec string no longer
    parses (an artifact from a different vocabulary version). *)

val reproduced : replay -> bool
(** The decision vector matches the recording {e and} the replay's
    failure status is the recorded one: a counterexample must still fail
    some property, a clean recording must still pass them all. *)
