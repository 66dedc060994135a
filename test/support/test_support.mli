(** Shared helpers for the test suite.

    Every suite that feeds random schedules into the model used to carry
    its own copy of the [(n, seed)] arbitrary, the [Pset.of_list]
    shorthand and the seed-to-RNG plumbing; they live here once.  The
    module also provides qcheck generators for {!Rrfd.Pset} and
    {!Rrfd.Fault_history} (printing compactly, shrinking through
    {!Check.Shrink.candidates}) so property failures report a minimal
    readable history instead of [<abstr>]. *)

val pset : Rrfd.Proc.t list -> Rrfd.Pset.t
(** [Pset.of_list], the [s [0;2]] shorthand the suites share. *)

val rng_of : int -> Dsim.Rng.t
(** [Dsim.Rng.create] — one deterministic stream per sampled seed. *)

val ok_exn : ('a, string) result -> 'a
(** The [Ok] value; fails the current Alcotest case with the [Error]
    message otherwise. *)

(** {1 Alcotest testables} *)

val pset_t : Rrfd.Pset.t Alcotest.testable

val history_t : Rrfd.Fault_history.t Alcotest.testable
(** Built on {!Rrfd.Fault_history.pp}/[equal]: a failing check prints the
    whole history round by round. *)

(** {1 qcheck arbitraries} *)

val int_range : int -> int -> int QCheck.arbitrary
(** Uniform integers in [\[lo, hi\]], like [QCheck.int_range], but
    shrinking toward [lo] rather than toward 0, so a reported
    counterexample never leaves the drawn range. *)

val sized_seed : ?min_n:int -> max_n:int -> unit -> (int * int) QCheck.arbitrary
(** [(n, seed)] pairs: system size in [min_n..max_n] (default [min_n] 2)
    and an RNG seed — the shape every randomized model test samples. *)

val sized_seed_plus :
  ?min_n:int -> max_n:int -> 'a QCheck.arbitrary -> (int * int * 'a) QCheck.arbitrary
(** [(n, seed, extra)] — {!sized_seed} with one more dimension (a fault
    budget, a round count, …). *)

val pset_arb : n:int -> Rrfd.Pset.t QCheck.arbitrary
(** Arbitrary subsets of [{0..n-1}], shrinking element-wise. *)

val proper_pset_gen : n:int -> Rrfd.Pset.t QCheck.Gen.t
(** Proper subsets only — what a detector may legally output (D ≠ S). *)

val history_gen : ?max_rounds:int -> n:int -> Rrfd.Fault_history.t QCheck.Gen.t
(** Unconstrained histories of proper fault sets, up to [max_rounds]
    (default 4) rounds. *)

val history_arb :
  ?min_n:int -> ?max_n:int -> ?max_rounds:int -> unit ->
  Rrfd.Fault_history.t QCheck.arbitrary
(** Histories over sizes [min_n..max_n] (defaults 2..5).  Prints via
    {!Rrfd.Fault_history.to_string_compact}; shrinks through
    {!Check.Shrink.candidates}, so qcheck reports the same minimal
    histories the model checker does. *)

(** {1 Process renaming} *)

val rename : int array -> Rrfd.Fault_history.t -> Rrfd.Fault_history.t
(** [rename perm h] renames process [i] to [perm.(i)], in the fault-set
    owners and in every set: [D'(perm i, r) = perm(D(i, r))].  [perm]
    must be a permutation of [0..n-1]. *)

val perm_gen : n:int -> int array QCheck.Gen.t
(** Uniform permutations of [0..n-1]. *)

(** {1 Pinned fixtures} *)

val check_fixture : what:string -> file:string -> string -> unit
(** [check_fixture ~what ~file actual] fails the current Alcotest case,
    naming the first differing line, unless [actual] is byte-identical
    to [test/fixtures/file].  [what] names the output in the message. *)

(** {1 Engine-compat fixture} *)

module Compat_fixture : sig
  val render : unit -> string
  (** Canonical catalog × substrate outcomes under pinned seeds; compared
      byte-for-byte against [test/fixtures/engine_compat.expected] by the
      differential pin test.  See [compat_fixture.ml] for the grid. *)
end

(** {1 Round-layer schedule fixture} *)

module Round_layer_fixture : sig
  val render : unit -> string
  (** {!Msgnet.Round_layer.run} outcomes for every adversary atom at two
      pinned seeds; compared byte-for-byte against
      [test/fixtures/round_layer.expected].  See
      [round_layer_fixture.ml] for the grid. *)
end

(** {1 Message-network timing fixture} *)

module Msgnet_timing_fixture : sig
  val render : unit -> string
  (** Chandra-Toueg consensus and E25's heartbeat probe under pinned
      seeds: decisions, exact decision and drain times, phases and every
      network counter; compared byte-for-byte against
      [test/fixtures/msgnet_timing.expected].  See
      [msgnet_timing_fixture.ml] for the grid. *)
end

(** {1 Transcript fixture} *)

module Transcript_fixture : sig
  val render : unit -> string
  (** Catalog and SUT transcripts under pinned seeds and histories;
      compared byte-for-byte against [test/fixtures/transcripts.expected].
      See [transcript_fixture.ml] for the grid. *)
end

(** {1 Reference oracles}

    The plain implementations that lean library code replaced, kept for
    the differential properties, and the full-information view readers
    only the tests need.  See [oracle.ml]. *)

module Oracle : sig
  val rng_int : Dsim.Rng.t -> int -> int
  (** {!Dsim.Rng.int} as the remainder of one draw: [bits30 t mod bound]
      up to [2^30], the top 62 bits of [int64 t] mod [bound] above. *)

  module Adopt_commit : sig
    val propose : own:'v -> seen:'v list -> 'v Rrfd.Adopt_commit.vote
    (** The list-based first-round rule ({!Rrfd.Adopt_commit.propose}). *)

    val resolve :
      own:'v -> seen:'v Rrfd.Adopt_commit.vote list -> 'v Rrfd.Adopt_commit.outcome
    (** The list-based second-round rule ({!Rrfd.Adopt_commit.resolve}). *)

    val seen : me:Rrfd.Proc.t -> own:'a -> 'm Rrfd.View.t -> ('m -> 'a) -> 'a list
    (** The list those rules read: [own] first when [me] is in the view's
        fault set, then every heard message, ascending. *)
  end

  module Full_info : sig
    val knows_input_of : Rrfd.Full_info.t -> Rrfd.Proc.t -> bool
    (** Whether [p]'s initial value occurs in the view. *)

    val known_inputs : Rrfd.Full_info.t -> (Rrfd.Proc.t * int) list
    (** All initial values occurring in the view, sorted by process,
        without duplicates. *)

    val heard_from_last_round : Rrfd.Full_info.t -> Rrfd.Pset.t
    (** The processes whose round view was received in the final round
        (empty for an [Initial] view). *)
  end

  module Property : sig
    val k_agreement : k:int -> Check.Property.obs -> string option

    val validity : Check.Property.obs -> string option

    val termination : Check.Property.obs -> string option
    (** The report-based forms of the stock properties: each builds the
        {!Tasks.Agreement} report first, then decides. *)
  end

  module Network : sig
    type 'msg t

    val create :
      sim:Dsim.Sim.t ->
      n:int ->
      ?min_delay:float ->
      ?max_delay:float ->
      ?adversary:Msgnet.Adversary.t ->
      ?tamper:'msg Msgnet.Network.tamper ->
      ?log_sends:bool ->
      deliver:(Dsim.Sim.t -> to_:Rrfd.Proc.t -> from:Rrfd.Proc.t -> 'msg -> unit) ->
      unit ->
      'msg t

    val send : 'msg t -> from:Rrfd.Proc.t -> to_:Rrfd.Proc.t -> 'msg -> unit

    val broadcast : 'msg t -> from:Rrfd.Proc.t -> ?self:bool -> 'msg -> unit

    val crash : 'msg t -> Rrfd.Proc.t -> unit

    val signed_log : 'msg t -> 'msg Msgnet.Network.signed list

    val counters : 'msg t -> int list
    (** sent, delivered, dropped, duplicated, tampered, lost to crash. *)
  end
  (** {!Msgnet.Network} with every copy its own simulator event and
      closure, scheduled as it is planned, and a broadcast a loop of
      sends: the per-copy network that broadcast runs replaced. *)

  module Derive : sig
    val verdicts :
      specs:string array ->
      preds:Rrfd.Predicate.t array ->
      Rrfd.Fault_history.t array ->
      string list * (string * int) list
    (** The sound specs, and each refuted spec with its lowest violating
        trial, both in candidate order, from one violation bitmask per
        observed history: the computation {!Check.Derive.derive}'s
        first-violation scan replaced. *)
  end

  module Submodel : sig
    type lattice

    val lattice :
      n:int -> rounds:int -> (string * Rrfd.Predicate.t) list -> lattice
    (** Every history of the space evaluated, one bit per history: the
        walk {!Rrfd.Submodel.lattice}'s orbit walk replaced. *)

    val implies : lattice -> string -> string -> bool

    val equivalent : lattice -> string -> string -> bool

    val minimal_conjuncts : lattice -> string list -> string list

    val weakest : lattice -> string list -> string list
    (** The {!Rrfd.Submodel} queries over per-history bitsets. *)
  end

  module Immediate_snapshot : sig
    val run_once : n:int -> schedule:Shm.Exec.strategy -> Shm.Immediate_snapshot.result
    (** The textbook immediate snapshot on the generic fiber executor —
        the oracle for {!Shm.Immediate_snapshot.run_once}. *)
  end
end
