(** The one execution record every substrate returns.

    The paper's central claim is that one algorithm text runs unchanged
    over synchrony, asynchrony and shared memory once the environment is
    presented as an RRFD.  The repository carries four concrete
    environments — the abstract detector-driven {!Engine}, the lock-step
    synchronous network ([Syncnet.Sync_net]), the event-driven
    asynchronous round layer ([Msgnet.Round_layer]), and the
    real-concurrency domain-per-process runner ([Live]) — and each of
    them is a {e substrate}: a runner that drives an {!Algorithm} and
    returns the same uniform observation, an {!execution}.

    {!Engine.run}, [Syncnet.Sync_net.run] and [Live.run] return an
    [execution] directly; the round layer keeps its own result record for
    the wire statistics and converts it with [Msgnet.Round_layer.execution].
    Everything downstream — the protocol catalog, the cross-substrate
    differential matrix (E22), the live-vs-model matrix (E23), the model
    checker's SUTs, the experiment tables — consumes executions and never
    needs to know which substrate produced them.  This is the executable
    form of the "communication-closed" correspondence (Damian et al.) and
    the heard-of characterisation (Shimi et al.): whatever the wall clock
    did, the observable content of a run is its decisions plus the fault
    history it induced. *)

type 'out execution = {
  substrate : string;
      (** Name of the substrate that ran the algorithm: ["engine"],
          ["sync"], ["msgnet"] or ["live"]. *)
  decisions : 'out option array;
      (** First decision of each process ([None] if it never decided). *)
  decision_rounds : int option array;
      (** Round at which each process first decided.  The asynchronous
          round layer has no global round clock and reports the last
          completed round of a decided process; the live substrate
          reports the (real-time) round whose delivery first made
          [decide] answer [Some _] at that process. *)
  rounds_used : int;  (** Rounds executed (the induced history's length).
          Simulated substrates may stop early once every process decided;
          the live substrate has no global decided-everywhere view, so
          its processes always run the full horizon and [rounds_used]
          equals the requested round count. *)
  induced : Fault_history.t;
      (** The fault history the run induced: for the engine this is the
          detector's output, for a real network — simulated or live — the
          per-round complement of who was heard. *)
  counters : Counters.t;
      (** Exact work accounting, in the same vocabulary on every
          substrate: rounds, messages delivered, detector queries,
          predicate checks.  See {!Counters}. *)
  violation : string option;
      (** Earliest violation of the optional online predicate check, when
          the runner was given one. *)
  crashed : Pset.t;
      (** Processes the substrate actually crashed ([Pset.empty] for the
          abstract engine, whose processes all keep executing). *)
  completed : int array;
      (** Rounds each process completed.  The engine and the live
          substrate complete every round everywhere; the synchronous
          network stops counting at a crash (a process crashed in round
          [c] completed [c − 1] rounds); the asynchronous layer may leave
          crashed or slow processes behind. *)
  wall_ns : int64 option;
      (** Real elapsed wall-clock time of the run in nanoseconds.
          [Some _] only on substrates whose nondeterminism comes from an
          actual scheduler (the live substrate); [None] on deterministic
          simulations, whose "time" is virtual and whose outputs must not
          depend on the wall clock. *)
}

(** {1 The pinned-replay verdict}

    Every substrate is checked the same way: replay [ex.induced] pinned on
    the engine ([Protocols.Catalog.replay] or
    [Msgnet.Heard_of.replay_decisions]) and compare decisions.  Only the
    processes that ran the whole induced history are compared — a process
    that crashed or fell behind stopped mid-history, while the replay keeps
    executing it. *)

val comparable : 'out execution -> Proc.t -> bool
(** [comparable ex i] iff [i] completed every round of [ex.induced]
    ([ex.completed.(i) = Fault_history.rounds ex.induced]). *)

val agrees :
  equal:('out -> 'out -> bool) ->
  'out execution ->
  replayed:'out option array ->
  bool
(** [agrees ~equal ex ~replayed] iff every {!comparable} process of [ex]
    has the same decision (or the same absence of one) in [replayed],
    under [equal]. *)
