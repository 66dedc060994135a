(** Cooperative step-level executor for shared-memory algorithms.

    Shared-memory protocols are sensitive to the {e interleaving} of
    individual register operations, so this substrate runs each process as a
    lightweight fiber (OCaml 5 effect handlers) and lets an adversarial
    scheduler choose, at every step, which process's next register operation
    executes.  Each {!Make.read} or {!Make.write} of a single location is
    one atomic step — the granularity at which SWMR registers are atomic.

    The memory is a flat array of locations holding values of the functor
    parameter type; the SWMR discipline (each location written by one
    process) is the caller's convention, checked when [enforce_swmr] is
    set. *)

(** Scheduling strategies. *)
type strategy =
  | Round_robin  (** Cycle through runnable processes in id order. *)
  | Random of Dsim.Rng.t  (** Uniform runnable process each step. *)
  | Fixed of int list
      (** Explicit process sequence; when exhausted (or the named process is
          blocked/finished) falls back to round-robin.  Lets tests pin exact
          interleavings. *)

module Make (V : sig
  type t
end) : sig
  val read : int -> V.t option
  (** [read loc] atomically reads location [loc] ([None] if never written).
      Must be called from inside a program run by {!run}. *)

  val write : int -> V.t -> unit
  (** [write loc v] atomically writes [v].  Must be called from inside a
      program run by {!run}. *)

  type outcome = {
    steps : int;  (** Total register operations executed. *)
    steps_per_process : int array;
  }

  val run :
    ?enforce_swmr:(int -> int) ->
    n_procs:int ->
    n_locs:int ->
    schedule:strategy ->
    (proc:int -> unit) ->
    outcome
  (** [run ~n_procs ~n_locs ~schedule body] starts [body ~proc:i] as a fiber
      for each process and interleaves their register operations until all
      terminate.  [enforce_swmr loc] gives the owner of each location; a
      write by any other process raises [Invalid_argument].

      Programs must not perform effects other than {!read}/{!write} and
      must terminate (the executor runs to quiescence). *)
end
