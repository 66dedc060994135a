(** Composable network fault-injection policies.

    The paper's whole point is that a model {e is} a predicate over the
    fault-history families [{D(i,r)}]; this module supplies the other half
    of that bridge — adversaries that damage the {e wire} rather than the
    detector, so the heard-of extraction ({!Heard_of}) can ask which
    predicate a given network adversary actually induces.

    A policy is a list of atoms applied to every non-loopback message a
    {!Network} carries: seeded-probability drop, bounded duplication, delay
    spikes, reorder jitter, and timed partition/heal schedules over
    {!Rrfd.Pset} blocks.  All randomness flows through the simulator's
    {!Dsim.Rng} stream, so a run is a pure function of its seed and the
    campaign layer's [(seed, trial)] derivation keeps tables bit-identical
    at every [-j].

    Policies are named by spec strings in the {!Check.Spec} vocabulary
    ([name:key=val,key=val], integer parameters, atoms joined with [+]), so
    a table row, a CLI flag and a JSON artifact all read the same way. *)

type blocks =
  | Split_at of int
      (** [{0..k-1}] versus [{k..n-1}] — the two-block split the spec
          string language can express without knowing [n]. *)
  | Blocks of Rrfd.Pset.t list
      (** Explicit disjoint blocks; processes in no block are unaffected. *)

type byz_behaviour = { equivocate : bool; corrupt : bool; forge : bool }
(** What a Byzantine process is allowed to do to its outgoing traffic:
    [equivocate] — send different round-[r] payloads to different
    receivers; [corrupt] — replace the payload it should have sent;
    [forge] — inject round-[r] messages it was never asked to send.
    Flags compose; all three lie about {e content}, never timing. *)

type atom =
  | Drop of { p : float }  (** Lose the message with probability [p]. *)
  | Duplicate of { p : float; copies : int }
      (** With probability [p], inject 1 to [copies] extra deliveries,
          each with an independently drawn delay. *)
  | Spike of { p : float; factor : float }
      (** With probability [p], multiply the drawn delay by [factor]. *)
  | Reorder of { p : float; window : float }
      (** With probability [p], add uniform extra delay in [\[0, window)] —
          enough to push the message behind later sends. *)
  | Partition of { at : float; heal : float; blocks : blocks }
      (** Messages crossing block boundaries are cut while
          [at <= now < heal]. *)
  | Byz of { members : Rrfd.Pset.t; behaviour : byz_behaviour }
      (** The processes in [members] lie per [behaviour].  Unlike every
          other atom this one never consumes the rng stream nor touches
          the delay plan — content tampering is applied by the transport
          ({!Network}'s [tamper] hook), keyed off {!byz_behaviour} — so
          adding a [Byz] atom leaves the benign delay schedule of a run
          bit-identical. *)

type t
(** A policy: an atom list plus the spec string that names it. *)

val none : t
(** The identity policy (spec ["none"]): every message is delivered once
    with its drawn delay. *)

val is_noop : t -> bool

val make : atom list -> t
(** Programmatic construction, e.g. partitions over arbitrary
    {!Rrfd.Pset} blocks that the spec grammar cannot spell. *)

val of_spec : string -> (t, string) result
(** Parse a policy.  Atoms are joined with [+]; each is a bare name or
    [name:key=val,...] with small non-negative integer values
    (probabilities are percentages):

    - [none]
    - [drop:p=20] — drop each message with probability 0.20
    - [dup:p=25,copies=2] — with probability 0.25 add 1..2 extra copies
    - [spike:p=10,factor=10] — with probability 0.10 multiply the delay
    - [reorder:p=25,window=10] — with probability 0.25 add jitter < 10
    - [partition:at=5,heal=50,left=2] — cut [{0..1}] from the rest during
      virtual time [\[5, 50)]
    - [byz:m=2,equiv=1,corrupt=0,forge=0] — processes [{0..1}] are
      Byzantine with the given behaviour flags (defaults:
      [equiv=1,corrupt=0,forge=0]); [m=0] spells the "nobody is
      Byzantine" grid row

    [Error] names the unknown atom and lists this vocabulary. *)

val spec_names : string
(** Comma-separated vocabulary for [--help] and error messages. *)

val byzantine : t -> n:int -> Rrfd.Pset.t
(** Union of all [Byz] atoms' members, clipped to the [n]-process
    universe — the ground-truth corrupted set a soundness check compares
    accusations against. *)

val byz_behaviour : t -> Rrfd.Proc.t -> byz_behaviour option
(** [byz_behaviour t p] is [Some b] iff some [Byz] atom contains [p];
    behaviours of multiple atoms naming [p] are OR-merged.  [None] means
    [p] is honest and its messages must never be tampered with. *)

val max_copies : t -> int
(** The most copies one message can be planned into: [1] plus every
    duplication atom's [copies].  A {!plan_into} buffer needs this many
    slots. *)

val plan_into :
  t ->
  Dsim.Rng.t ->
  now:(unit -> float) ->
  from:Rrfd.Proc.t ->
  to_:Rrfd.Proc.t ->
  redraw:(Float.Array.t -> int -> unit) ->
  Float.Array.t ->
  int
(** [plan_into t rng ~now ~from ~to_ ~redraw out] is {!plan} through the
    caller's buffer: the network-drawn delay comes in [out.(0)],
    [redraw out k] must store a fresh base delay in [out.(k)], and
    [now ()] is the send time, read only when a partition atom must
    decide.  It makes exactly the same draws in the same order as
    {!plan}, stores the copies' delays in [out.(0..k-1)] and returns [k]
    ([0] means the message is lost).  [out] must hold at least
    {!max_copies}[ t] slots.  No float crosses a call, so it allocates
    nothing beyond what [redraw] and [now] do. *)

val plan :
  t ->
  Dsim.Rng.t ->
  now:float ->
  from:Rrfd.Proc.t ->
  to_:Rrfd.Proc.t ->
  delay:float ->
  redraw:(unit -> float) ->
  float list
(** [plan t rng ~now ~from ~to_ ~delay ~redraw] decides the fate of one
    message whose network-drawn delay is [delay]: the returned list holds
    one delivery delay per copy ([[]] means the message is lost; extra
    copies draw fresh base delays via [redraw]).  Atoms consume [rng] in
    list order with a fixed per-atom draw pattern, so equal policies and
    stream states always plan identically.  A fresh-list wrapper over
    {!plan_into}. *)
