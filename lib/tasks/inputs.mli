(** Input-vector generators for agreement tasks. *)

val distinct : int -> int array
(** [distinct n] is [[|0; 1; …; n−1|]] — every process proposes its own id,
    the hardest case for agreement. *)

val binary : Dsim.Rng.t -> int -> int array
(** Uniform 0/1 inputs. *)

val constant : int -> int -> int array
(** [constant n v] is [n] copies of [v] — exercises convergence clauses. *)
