(** Immutable sets of process identifiers.

    A set is a width-polymorphic bitset with two representations behind
    this abstract type: ids below 62 live in a single
    immediate-int word (allocation-free, the common case for the paper's
    experiments), larger universes in a canonical multi-word array with
    62 bits per word.  All set algebra is word-at-a-time — O(n/62), not
    O(n) — and sets compare structurally under {!equal}/{!compare}. *)

type t
(** An immutable set of process identifiers in [\[0, max_universe)]. *)

val max_universe : int
(** Upper bound on process ids (2{^30}).  A sanity bound, not a
    representation limit: wide sets grow by whole 62-bit words. *)

val is_small : t -> bool
(** True iff the set is in the one-word representation, i.e. all its
    elements are below 62.  Representation introspection
    for tests and diagnostics; the two representations are otherwise
    indistinguishable. *)

val empty : t

val full : int -> t
(** [full n] is [{0, ..., n-1}].
    @raise Invalid_argument if [n < 0] or [n > max_universe]. *)

val singleton : Proc.t -> t
(** @raise Invalid_argument if the id is out of range. *)

val of_list : Proc.t list -> t

val to_list : t -> Proc.t list
(** Elements in increasing order. *)

val add : Proc.t -> t -> t

val remove : Proc.t -> t -> t

val mem : Proc.t -> t -> bool
(** @raise Invalid_argument if the id is out of [\[0, max_universe)],
    like every other entry point. *)

val cardinal : t -> int
(** Constant-time per word (SWAR popcount). *)

val is_empty : t -> bool

val union : t -> t -> t

val inter : t -> t -> t

val diff : t -> t -> t

val subset : t -> t -> bool
(** [subset a b] is true iff every element of [a] is in [b]. *)

val equal : t -> t -> bool

val compare : t -> t -> int
(** A total order (small sets before wide ones, wide by width then
    most-significant word); consistent with {!equal}. *)

val iter : (Proc.t -> unit) -> t -> unit
(** Ascending order. *)

val fold : (Proc.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending order. *)

val for_all : (Proc.t -> bool) -> t -> bool

val filter : (Proc.t -> bool) -> t -> t
(** Consults the predicate once per member in ascending order (seeded
    callers rely on that consumption pattern). *)

val min_elt : t -> Proc.t option
(** The least identifier in the set, if any (constant-time ctz per
    word). *)

val lowest : t -> int
(** Allocation-free {!min_elt}: the least identifier, or [-1] when the
    set is empty.  For per-delivery hot paths that cannot afford the
    option box. *)

val choose_nth : t -> int -> Proc.t
(** [choose_nth s i] is the [i]-th smallest element.  Skips whole words
    by popcount.
    @raise Invalid_argument if [i < 0] or [i >= cardinal s]. *)

val random_subset : Dsim.Rng.t -> t -> t
(** [random_subset rng s] keeps each element of [s] independently with
    probability 1/2. *)

val random_subset_of_size : Dsim.Rng.t -> t -> int -> t
(** [random_subset_of_size rng s k] is a uniform k-element subset of [s].
    @raise Invalid_argument if [k < 0] or [k > cardinal s]. *)

val subsets : t -> t list
(** All subsets of [s] (2^|s| of them), in an unspecified but deterministic
    order.  Intended only for small sets in exhaustive enumerations. *)

val pp : Format.formatter -> t -> unit
(** Prints as [{p0,p2,p5}]. *)

val to_string : t -> string
