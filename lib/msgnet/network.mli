(** Asynchronous point-to-point network on the discrete-event simulator.

    Messages are delivered after adversarially chosen finite delays (drawn
    from the simulator's random stream within configurable bounds, or
    overridden per send), optionally damaged by a fault-injection
    {!Adversary} — drop, duplication, delay spikes, reorder jitter, timed
    partitions.  Loopback sends ([from = to_]) bypass the adversary: a
    process's channel to itself is process-internal.

    Crash semantics (all three statements agree, and the counters below
    audit them): once [crash p] is called, (1) further sends {e from} [p]
    are no-ops and are not counted in {!messages_sent}; (2) messages
    already in flight from [p] are still delivered — the standard
    asynchronous crash model; (3) messages arriving {e at} [p] are dropped
    at delivery time and counted in {!messages_lost_to_crash}.

    Delivery is not FIFO unless the delay bounds make it so.  In a drained
    simulation the counters satisfy
    [sent + duplicated = delivered + dropped + lost_to_crash].

    A point-to-point {!send} queues each copy as its own simulator event.
    A {!broadcast} to 8 or more receivers hands all its copies to the
    simulator at once ({!Dsim.Sim.schedule_run}): one queue entry, and no
    allocation per copy.  A broadcast to fewer receivers is a loop of
    {!send}s, which measured cheaper there.  It makes the same draws in the same
    order and delivers in the same order as the loop of sends it
    replaces, so the two are interchangeable byte for byte.  Its payload
    is stored once, in a table the network clears as the last copy is
    delivered; a copy the tamper hook forged gets an entry of its own.

    {b Hooks must not schedule.}  A broadcast to 8 or more receivers
    takes its copies' sequence numbers as one block after it has drawn,
    tampered, signed and planned every copy.  So the tamper hook, the
    adversary's [redraw] and anything else a broadcast calls must not
    schedule a simulator event; one that does makes such a {!broadcast}
    raise [Invalid_argument]. *)

type 'msg t
(** A network carrying messages of type ['msg] between [n] processes. *)

type 'msg signed = {
  seq : int;  (** Global send order, from 0. *)
  signer : Rrfd.Proc.t;
      (** The {e true} origin, stamped by the transport — the model of an
          unforgeable signature.  Whatever a tampered payload claims, the
          evidence stays attributable to its sender. *)
  receiver : Rrfd.Proc.t;
  sent_at : float;  (** Virtual send time. *)
  payload : 'msg;  (** Post-tamper content, exactly as the wire carried it. *)
}
(** One entry of the signed send log ({!signed_log}): the evidence unit
    the accountability audit ({!Accountability}) replays. *)

type 'msg tamper =
  behaviour:Adversary.byz_behaviour ->
  now:float ->
  from:Rrfd.Proc.t ->
  to_:Rrfd.Proc.t ->
  'msg ->
  'msg option
(** Content-tampering hook, invoked once per non-loopback send whose
    sender the adversary marks Byzantine ({!Adversary.byz_behaviour}).
    [Some m'] replaces the payload on the wire (counted in
    {!messages_tampered}); [None] lets the canonical payload through.
    The hook must not schedule simulator events (see above).
    Honest senders never reach the hook, so any tampered message is
    attributable by construction.  Hooks needing randomness must close
    over their own {!Dsim.Rng} stream — the simulator's stream is
    reserved for delays, which keeps benign schedules bit-identical
    whether or not anyone lies. *)

val create :
  sim:Dsim.Sim.t ->
  n:int ->
  ?min_delay:float ->
  ?max_delay:float ->
  ?adversary:Adversary.t ->
  ?tamper:'msg tamper ->
  ?log_sends:bool ->
  deliver:(Dsim.Sim.t -> to_:Rrfd.Proc.t -> from:Rrfd.Proc.t -> 'msg -> unit) ->
  unit ->
  'msg t
(** [create ~sim ~n ~deliver ()] builds a network whose per-message delays
    are uniform in [\[min_delay, max_delay\]] (defaults 1.0 and 10.0);
    [deliver] is invoked at the receiver's delivery time.  [adversary]
    (default {!Adversary.none}) is consulted for every non-loopback send.
    [tamper] (default absent) lets Byzantine senders lie about content;
    [log_sends] (default [false]) retains every send — loopback included,
    post-tamper, true sender stamped — for {!signed_log}. *)

val n : _ t -> int

val send : 'msg t -> from:Rrfd.Proc.t -> to_:Rrfd.Proc.t -> ?delay:float -> 'msg -> unit
(** Queue one message.  No-op if the sender has crashed.  An explicit
    [?delay] fixes the base delay but the adversary still applies. *)

val broadcast : 'msg t -> from:Rrfd.Proc.t -> ?self:bool -> 'msg -> unit
(** Send to every process, including the sender itself when [self] (default
    true); each copy gets an independent delay.  Exactly
    [send t ~from ~to_ msg] for every receiver [to_] in ascending order,
    handed to the simulator as one batch from 8 receivers up.
    @raise Invalid_argument if a hook scheduled a simulator event while
    a broadcast to 8 or more receivers planned its copies. *)

val crash : 'msg t -> Rrfd.Proc.t -> unit
(** Crash a process: its future sends are no-ops (uncounted), messages in
    flight from it still arrive, and deliveries to it are dropped and
    counted in {!messages_lost_to_crash}. *)

val crashed : 'msg t -> Rrfd.Pset.t

val signed_log : 'msg t -> 'msg signed list
(** Chronological (by [seq]) record of every send since creation, empty
    unless [log_sends] was set.  Sends are logged whatever their delivery
    fate — a dropped copy was still emitted and signed, and two
    conflicting signed copies are a proof of equivocation regardless of
    who got to read them. *)

val messages_tampered : _ t -> int
(** Sends whose payload the [tamper] hook replaced. *)

val messages_sent : _ t -> int
(** Sends accepted from live processes (adversarial extra copies not
    included). *)

val messages_delivered : _ t -> int
(** Deliveries actually handed to [deliver]. *)

val messages_dropped : _ t -> int
(** Messages lost to the adversary (drop atoms and partitions). *)

val messages_duplicated : _ t -> int
(** Extra copies the adversary injected beyond the original send. *)

val messages_lost_to_crash : _ t -> int
(** Deliveries dropped because the receiver had crashed. *)
