(** Heartbeat failure detection (the classic, pre-RRFD kind).

    Sections 6–7 of the paper relate RRFDs to the Chandra–Toueg failure
    detectors that {e augment} an asynchronous system.  This module
    implements that classic detector over the simulated network: every
    process broadcasts heartbeats; a process is suspected by an observer
    when its heartbeat is overdue at that observer, and unsuspected (with
    an increased timeout) when a late one arrives.  Because the network's
    delays are bounded, the detector is eventually perfect (◇P): once
    timeouts stop adapting, exactly the crashed processes are suspected —
    stronger than the ◇S the consensus layer needs. *)

type t

val create :
  sim:Dsim.Sim.t ->
  n:int ->
  send_heartbeat:(from:Rrfd.Proc.t -> unit) ->
  ?interval:float ->
  ?initial_timeout:float ->
  ?timeout_increment:float ->
  ?horizon:float ->
  unit ->
  t
(** [create ~sim ~n ~send_heartbeat ()] schedules periodic heartbeat
    emission for every process until virtual time [horizon] (default
    1000.0).  The caller owns the message type: [send_heartbeat ~from]
    must broadcast a message that the caller routes back via {!beat} on
    delivery (a crashed sender's broadcasts are dropped by the network, so
    its heartbeats stop automatically).  [interval] (default 5.0) is the
    emission period, [initial_timeout] (default 12.0) the first suspicion
    threshold per observer/target pair, [timeout_increment] (default 5.0)
    the penalty added whenever a suspicion proves false. *)

val beat : t -> at:Rrfd.Proc.t -> from:Rrfd.Proc.t -> unit
(** Record a heartbeat from [from] delivered at observer [at]. *)

val suspects : t -> observer:Rrfd.Proc.t -> target:Rrfd.Proc.t -> bool
(** Whether [observer] currently suspects [target] (its heartbeat is
    overdue). *)

val false_suspicions : t -> int
(** Suspicions later retracted by a late heartbeat (instrumentation for
    the adaptive-timeout behaviour). *)

val live_suspicions :
  t -> among:Rrfd.Pset.t -> (Rrfd.Proc.t * Rrfd.Proc.t) list
(** Current [(observer, target)] suspicions restricted to [among] — the
    convergence probe for fault-injection runs: after a partition heals
    and timeouts adapt, suspicions among live processes must drain. *)
