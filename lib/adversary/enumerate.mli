(** Exhaustive enumeration of fault histories for small systems.

    Used by the submodel-lattice experiment (E13) and the two-round
    known-by-all conjecture search (E14): enumerate every history of a given
    size that satisfies a predicate and fold over them.  The space is
    [((2^n − 1)^n)^rounds] before pruning, so callers keep [n ≤ 4] and
    [rounds ≤ 2]. *)

val fold :
  n:int ->
  rounds:int ->
  satisfying:Rrfd.Predicate.t ->
  init:'a ->
  f:('a -> Rrfd.Fault_history.t -> 'a) ->
  'a
(** [fold ~n ~rounds ~satisfying ~init ~f] applies [f] to every
    [rounds]-round history satisfying the predicate.  Prefixes violating the
    predicate are pruned (all the paper's predicates are prefix-closed). *)

val count : n:int -> rounds:int -> satisfying:Rrfd.Predicate.t -> int
(** Number of histories the fold would visit. *)

val fold_extensions :
  prefix:Rrfd.Fault_history.t ->
  rounds:int ->
  satisfying:Rrfd.Predicate.t ->
  init:'a ->
  f:('a -> Rrfd.Fault_history.t -> 'a) ->
  'a
(** [fold_extensions ~prefix ~rounds ~satisfying ~init ~f] folds over every
    extension of [prefix] to exactly [rounds] total rounds that satisfies the
    predicate — the sharding primitive of the model checker's exhaustive
    mode: each domain explores the subtree below one first-round assignment.
    [fold] is [fold_extensions] from the empty prefix.
    @raise Invalid_argument if [prefix] already has more than [rounds]
    rounds. *)

val find_extension :
  prefix:Rrfd.Fault_history.t ->
  rounds:int ->
  satisfying:Rrfd.Predicate.t ->
  f:(Rrfd.Fault_history.t -> bool) ->
  Rrfd.Fault_history.t option
(** First extension of [prefix] for which [f] holds, with early exit. *)

val find :
  n:int ->
  rounds:int ->
  satisfying:Rrfd.Predicate.t ->
  f:(Rrfd.Fault_history.t -> bool) ->
  Rrfd.Fault_history.t option
(** First enumerated history for which [f] holds, with early exit. *)
