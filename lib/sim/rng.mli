(** Deterministic pseudo-random number generation.

    All randomness in the repository flows through this module so that every
    experiment is reproducible from an explicit seed.  The generator is
    splitmix64 (Steele, Lea & Flood 2014): a tiny, fast, well-distributed
    64-bit generator whose state is a single [int64].  It also supports
    {e splitting}, which lets independent components derive statistically
    independent streams from a parent seed without sharing mutable state. *)

type t
(** A mutable pseudo-random stream. *)

val create : int -> t
(** [create seed] returns a fresh stream deterministically derived from
    [seed].  Equal seeds yield equal streams. *)

val copy : t -> t
(** [copy t] is an independent stream with the same current state as [t]. *)

val derive_seed : int -> int -> int
(** [derive_seed seed stream] deterministically mixes [seed] with a stream
    index into a fresh seed.  Distinct [(seed, stream)] pairs map to
    statistically unrelated seeds, so parallel workers can each be handed
    [derive_seed seed i] without coordinating on shared RNG state — the
    foundation of order-independent (and therefore [-j]-independent)
    Monte-Carlo campaigns. *)

val derive : seed:int -> stream:int -> t
(** [derive ~seed ~stream] is [create (derive_seed seed stream)]. *)

val split : t -> t
(** [split t] advances [t] and returns a new stream whose subsequent outputs
    are statistically independent of [t]'s. *)

val int64 : t -> int64
(** [int64 t] is the next raw 64-bit output. *)

val bits30 : t -> int
(** [bits30 t] is a uniform integer in [\[0, 2^30)]. *)

val int : t -> int -> int
(** [int t bound] is a uniform integer in [\[0, bound)], from exactly one
    draw: [bits30 t mod bound] when [bound ≤ 2^30], the top 62 bits of
    {!int64} mod [bound] above that.  Small bounds reduce by an exact
    multiply-shift instead of dividing; the value is the same.
    @raise Invalid_argument if [bound <= 0]. *)

val int_in_range : t -> min:int -> max:int -> int
(** [int_in_range t ~min ~max] is uniform in [\[min, max\]] (inclusive).
    @raise Invalid_argument if [max < min]. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val bits53 : t -> int
(** [bits53 t] is a uniform integer in [\[0, 2^53)]: the draw behind
    {!float}.  [float t b] is [b *. (Float.of_int (bits53 t) /. 2^53)]
    on the same stream state, so a caller that cannot rely on
    cross-module inlining can scale the bits itself and keep the float
    unboxed. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t a] applies a uniform Fisher–Yates permutation. *)

val shuffle : t -> 'a list -> 'a list
(** [shuffle t l] is a uniformly permuted copy of [l]. *)

val choose : t -> 'a list -> 'a
(** [choose t l] is a uniformly chosen element of [l].
    @raise Invalid_argument on the empty list. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] returns [k] distinct integers drawn
    uniformly from [\[0, n)], in increasing order.
    @raise Invalid_argument if [k < 0] or [k > n]. *)
