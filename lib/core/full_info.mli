(** The full-information protocol.

    Several of the paper's implementation arguments (items 3 and 4 of Sec. 2)
    "run the system in full-information mode": every round, a process emits
    everything it knows and merges everything it receives.  A view is then a
    tree whose leaves are initial values and whose internal nodes record who
    heard whom at which round. *)

type t =
  | Initial of Proc.t * int
      (** [Initial (p, v)]: process [p] started with input [v]. *)
  | Node of { owner : Proc.t; round : int; heard : t option array; faulty : Pset.t }
      (** [owner]'s knowledge after completing [round]: [heard.(j)] is
          [p_j]'s round view if received, [None] if [p_j ∈ faulty]. *)

val equal : t -> t -> bool

val algorithm : inputs:int array -> (t, t, t) Algorithm.t
(** The full-information algorithm with the given initial values (one per
    process).  The state after round [r] is the depth-[r] view.  [decide]
    always returns the current view, so the engine's per-round decisions
    expose the evolving views; callers typically run it for a fixed number
    of rounds. *)
