(** Attiya–Bar-Noy–Dolev register emulation over message passing.

    Item 4 leans on the classic result that a SWMR atomic register can be
    implemented in an asynchronous message-passing system with a majority of
    correct processes ([22] in the paper).  This module implements it over
    the simulated network: one single-writer register, replicated at all [n]
    processes, tolerating [f < n/2] crashes.

    - {b write(v)}: the writer increments its timestamp, broadcasts
      [(ts, v)], and completes on [n − f] acknowledgements.
    - {b read}: query all replicas, wait for [n − f] replies, pick the
      highest-timestamped pair, {e write it back} to a majority before
      returning — the write-back is what makes concurrent reads atomic
      rather than merely regular.

    Operations are asynchronous: callers get completion callbacks fired by
    the simulator.  {!History} records invocations/responses so tests can
    check atomicity on the real-time order. *)

type t
(** One emulated register (with its replicas) over a network. *)

val create :
  sim:Dsim.Sim.t ->
  n:int ->
  f:int ->
  writer:Rrfd.Proc.t ->
  ?min_delay:float ->
  ?max_delay:float ->
  ?adversary:Adversary.t ->
  unit ->
  t
(** [create ~sim ~n ~f ~writer ()] sets up the protocol among [n]
    processes.  Quorums are counted over distinct replicas, so a
    duplicating [adversary] cannot fake one.  When an adversary is present,
    pending operations rebroadcast their message every 10.0 until virtual
    time 600.0, so drops and healed partitions delay quorums instead of
    starving them.
    @raise Invalid_argument unless [0 ≤ 2f < n]. *)

val write : t -> value:int -> on_done:(unit -> unit) -> unit
(** Start a write by the writer.  At most one outstanding write at a time
    (SWMR; the writer is sequential).
    @raise Invalid_argument if a write is already pending. *)

val read : t -> proc:Rrfd.Proc.t -> on_done:(int option -> unit) -> unit
(** Start a read at process [proc] ([None] if nothing was ever written).
    One outstanding read per process. *)

val crash : t -> Rrfd.Proc.t -> unit
(** Crash a replica/client.  Pending operations of that process never
    complete; everyone else's still do while crashes stay ≤ f. *)

(** Operation log for atomicity checking. *)
module History : sig
  type event = {
    proc : Rrfd.Proc.t;
    kind : [ `Write of int | `Read of int option ];
    invoked : float;
    responded : float;
    timestamp : int;  (** Protocol timestamp attached to the value. *)
  }

  val events : t -> event list
  (** Completed operations, in response order. *)

  val check_atomic : event list -> string option
  (** Single-writer atomicity on the real-time order: a read returns the
      timestamp of the last write that completed before it started, or of a
      concurrent write; and reads that do not overlap are monotone in
      timestamp.  [None] when it holds. *)
end
