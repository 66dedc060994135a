(** String specs for predicates, generators, systems and properties.

    Counterexample artifacts must survive a round-trip through JSON and
    come back executable, so everything the checker is configured with is
    named by a little spec string: a bare name, or [name:key=val,key=val]
    (e.g. ["kset:k=2"], ["async-mixed:f=1,t=2"]).  The same specs are the
    CLI's vocabulary, so an artifact's fields read exactly like the command
    line that would regenerate it. *)

val predicate : string -> (Rrfd.Predicate.t, string) result
(** Named predicates: [true], [no-self], [not-all-faulty], [crash-closure],
    [someone-seen], [antisym], [omission:f=_], [crash:f=_], [async:f=_],
    [async-mixed:f=_,t=_], [shm:f=_], [shm-alt:f=_], [snapshot:f=_],
    [kset:k=_], [eq5], [detector-s], and the Byzantine-aware pair
    [byz-round:f=_] ({!Rrfd.Predicate.byzantine_round_bound}) and
    [honest-kernel:k=_] ({!Rrfd.Predicate.eventual_honest_kernel}), meant
    for fused silent∪lied histories
    ({!Msgnet.Heard_of.to_byz_history}).  [f] defaults to 1, [k] to 2,
    [t] to 2.  [Error] names the unknown spec and lists the
    vocabulary, or names a parameter the entry does not take. *)

val generator :
  string ->
  ((Dsim.Rng.t -> n:int -> Rrfd.Detector.t) * Rrfd.Predicate.t, string) result
(** Constructive {!Rrfd.Detector_gen} generators, paired with the
    predicate they satisfy by construction (the shrinker re-validates
    against it): [omission:f=_], [crash:f=_], [async:f=_],
    [async-mixed:f=_,t=_], [shm:f=_], [snapshot:f=_], [kset:k=_],
    [antisym:f=_], [eq5], [detector-s].  A parameter the entry does not
    take is an [Error]. *)

val sut : string -> (Sut.t, string) result
(** Any {!Protocols.Catalog} name ([kset-one-round], [consensus],
    [adopt-commit], [phased-consensus], …) — SUTs are derived from the
    catalog via {!Sut.of_protocol}. *)

val property : string -> (Property.t, string) result
(** [agreement], [k-agreement:k=_], [validity], [termination],
    [adopt-commit].  A parameter the entry does not take is an
    [Error]. *)

val adversary : string -> (Msgnet.Adversary.t, string) result
(** Network fault-injection policies in the same grammar, atoms joined
    with [+]: [none], [drop:p=_], [dup:p=_,copies=_], [spike:p=_,factor=_],
    [reorder:p=_,window=_], [partition:at=_,heal=_,left=_] — probabilities
    as percentages.  Delegates to {!Msgnet.Adversary.of_spec}. *)

val default_properties : Sut.t -> string list
(** The property specs the CLI checks when none are given: the full
    adopt-commit specification for the adopt-commit SUT, and
    termination + validity + agreement otherwise. *)

val predicate_names : string
(** Comma-separated vocabulary, for [--help] and error messages. *)

val generator_names : string

val sut_names : string

val property_names : string

val adversary_names : string
