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

(** {1 Transcript fixture} *)

module Transcript_fixture : sig
  val render : unit -> string
  (** Catalog and SUT transcripts under pinned seeds and histories;
      compared byte-for-byte against [test/fixtures/transcripts.expected].
      See [transcript_fixture.ml] for the grid. *)
end
