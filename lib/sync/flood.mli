(** Flooding agreement — the classic synchronous baselines.

    Every round each process broadcasts the set of input values it knows and
    merges what it receives; at a fixed horizon it decides the minimum known
    value.  With at most [f] crash faults:

    - horizon [f + 1] solves consensus (FloodSet, the Fischer–Lynch bound);
    - horizon [⌊f/k⌋ + 1] solves k-set agreement (Chaudhuri et al.), which
      Corollary 4.2/4.4 shows is optimal — the lower-bound experiment runs
      exactly this algorithm at smaller horizons against the chain adversary
      and watches agreement break. *)

type state

val min_flood : inputs:int array -> horizon:int -> (state, int list, int) Rrfd.Algorithm.t
(** [min_flood ~inputs ~horizon] floods known values for [horizon] rounds,
    then decides the minimum.  Messages are sorted lists of known values. *)

val consensus : inputs:int array -> f:int -> (state, int list, int) Rrfd.Algorithm.t
(** [min_flood] at horizon [f + 1]. *)

val kset : inputs:int array -> f:int -> k:int -> (state, int list, int) Rrfd.Algorithm.t
(** [min_flood] at horizon [⌊f/k⌋ + 1].
    @raise Invalid_argument unless [f ≥ k > 0]. *)
