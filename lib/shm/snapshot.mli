(** Wait-free atomic snapshots from SWMR registers.

    The Afek–Attiya–Dolev–Gafni–Merritt–Shavit construction: each process
    owns one segment; {!Make.update} writes (value, sequence number,
    embedded scan); {!Make.scan} repeatedly double-collects and either
    returns a clean double collect (two identical collects form a
    linearizable snapshot) or, after seeing some process move twice, borrows
    that process's embedded scan — which was itself obtained entirely inside
    the scanner's interval.  Both operations are wait-free.

    This is the substrate behind item 5's model: the iterated
    immediate-snapshot protocol ({!Immediate_snapshot}) runs its collects
    through these scans. *)

module Make (V : sig
  type t
end) : sig
  type outcome = { steps : int; steps_per_process : int array }

  val run : n:int -> schedule:Exec.strategy -> (proc:int -> unit) -> outcome
  (** [run ~n ~schedule body] executes [body ~proc:p] for each process over
      one fresh [n]-segment snapshot object, interleaving register steps
      according to [schedule].  Not reentrant: one run at a time. *)

  val update : proc:int -> V.t -> unit
  (** Replace the calling process's segment.  Wait-free, linearizable.
      Only valid inside a {!run} body. *)

  val scan : unit -> V.t option array
  (** A linearizable snapshot of all segments ([None] = never written).
      Only valid inside a {!run} body. *)
end
