(** Rotating-coordinator consensus with an unreliable failure detector.

    The Chandra–Toueg ◇S algorithm, which the paper's Sections 6–7 hold up
    as the "classic" detector-augmented approach that RRFDs reinterpret:
    phases rotate through coordinators; in phase [r] every process sends
    its timestamped estimate to coordinator [r mod n]; the coordinator
    picks the estimate with the highest timestamp among a majority,
    broadcasts it, and decides (by reliable broadcast) once a majority
    acknowledges.  A process that suspects the coordinator (heartbeat
    detector, {!Heartbeat}) sends a nack and moves on.  Requires a majority
    of correct processes ([2f < n]).

    Safety comes from majority intersection and timestamp locking, with
    all quorum bookkeeping keyed by sender so duplicated messages cannot
    inflate a majority; termination from the detector's eventual accuracy
    plus estimate retransmission, so a fault-injection {!Adversary} that
    drops or partitions messages delays phases without wedging them. *)

type result = {
  decisions : int option array;
  decision_times : float option array;  (** Virtual decision times. *)
  phases_used : int;  (** Highest phase any process entered. *)
  false_suspicions : int;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  messages_duplicated : int;
  messages_lost_to_crash : int;
      (** The network's counters ({!Network.messages_sent} and the rest). *)
  messages_tampered : int;
      (** Sends whose content a Byzantine member replaced.  When the
          adversary has [Byz] atoms, members lie about estimate,
          proposal and decision values per their behaviour flags;
          because CT trusts a Decide on receipt, a single corrupted
          Decide can violate agreement — the E24 experiment measures
          exactly that rate. *)
  accused : Rrfd.Pset.t;
      (** Post-hoc equivocation audit of the signed send log (only
          byte-classes an honest process provably never varies —
          per-phase estimates and proposals — are scanned, so
          [accused ⊆ byzantine] unconditionally; see
          {!Accountability.conflicting_sends}).  Empty when the
          adversary has no Byzantine members. *)
  virtual_time : float;
}

val run :
  ?seed:int ->
  ?crashes:(Rrfd.Proc.t * float) list ->
  ?adversary:Adversary.t ->
  ?hb_interval:float ->
  ?hb_initial_timeout:float ->
  ?horizon:float ->
  n:int ->
  f:int ->
  inputs:int array ->
  unit ->
  result
(** [run ~n ~f ~inputs ()] executes one consensus instance.  [crashes]
    lists processes with their crash times (at most [f], and [2f < n] must
    hold).  [adversary] damages the network (see {!Adversary}); safety
    must survive any policy, termination needs losses to eventually let a
    phase through (e.g. a partition that heals).  At most 64 phases run;
    live processes are expected to decide well before that.

    [hb_interval] and [hb_initial_timeout] tune the embedded {!Heartbeat}
    detector (defaults 5.0 / 12.0) and [horizon] (default 1000.0) bounds
    both heartbeat traffic and suspicion polling.  The defaults reproduce
    the historical behaviour; large-n scaling campaigns shorten the
    horizon and stretch the interval because every beat is an n-way
    broadcast — O(n² · horizon / interval) simulated deliveries.
    @raise Invalid_argument on parameter violations. *)
