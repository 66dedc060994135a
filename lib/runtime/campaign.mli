(** Deterministic Monte-Carlo campaigns over a domain pool.

    A campaign runs [trials] independent trials of a function under an
    explicit seed.  Each trial receives its own RNG, derived from
    [(seed, trial index)] by {!Dsim.Rng.derive} rather than by splitting a
    shared stream in program order — so trial [i] sees the same random
    choices whether the campaign runs on one domain or sixteen, and the
    aggregated table is bit-identical for every [-j].  Parallelism is pure
    scheduling. *)

val run :
  ?jobs:int ->
  seed:int ->
  trials:int ->
  (trial:int -> rng:Dsim.Rng.t -> 'a) ->
  'a array
(** [run ~jobs ~seed ~trials f] evaluates
    [f ~trial:i ~rng:(Dsim.Rng.derive ~seed ~stream:i)] for every
    [i < trials] on up to [jobs] domains (default
    {!Pool.recommended_jobs}) and returns the observations in trial order.
    [f] must not touch shared mutable state: everything a trial needs is
    its index and its private RNG. *)

val search :
  ?jobs:int ->
  seed:int ->
  trials:int ->
  (trial:int -> rng:Dsim.Rng.t -> 'a option) ->
  'a option
(** [search ~jobs ~seed ~trials f] is {!Pool.search} with per-trial RNG
    derivation: the returned hit is the one of the {e lowest} trial index,
    so a fuzzing campaign reports the same counterexample at every [-j].
    Trials above the best hit so far are skipped (early exit); trials below
    it always run. *)

val map :
  ?jobs:int ->
  seed:int ->
  'a list ->
  (index:int -> rng:Dsim.Rng.t -> 'a -> 'b) ->
  'b list
(** [map ~jobs ~seed items f] runs one trial per list element — for
    campaigns whose independent units are an explicit case list (an
    adversary per horizon, a fault model per row) rather than an anonymous
    trial count.  Results come back in list order; RNG derivation follows
    the element's position, exactly as in {!run}. *)
