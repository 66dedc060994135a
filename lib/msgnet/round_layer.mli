(** The item-3 construction: asynchronous message passing implements the
    f-resilient RRFD.

    Each process simulates rounds on top of the raw network by tagging
    messages with round numbers, buffering messages that arrive early,
    discarding messages that arrive late, and completing round [r] as soon
    as it holds at least [n − f] round-[r] messages.  The fault set
    [D(i,r)] is the set of senders whose round-[r] message had not arrived
    at completion time — by construction [|D(i,r)| ≤ f], which is exactly
    predicate (3).  A process delivers its own emission locally at emit
    time, so it always hears itself and [i ∉ D(i,r)] even under an
    adversary.

    With a fault-injection {!Adversary} the layer also runs a repair
    protocol (periodic retransmission of the current round, answered by
    catch-up copies from processes further ahead), without which a lossy
    or partitioned round could starve below the [n − f] threshold
    forever.  As rounds complete, a {!Heard_of} recorder extracts the
    induced fault history; {!Heard_of.replay_decisions} replays it through
    the abstract engine and {!Rrfd.Substrate.agrees} checks the two
    executions decide identically. *)

type 'out result = {
  decisions : 'out option array;
  induced : Rrfd.Fault_history.t;
      (** Extracted fault history over the longest completed prefix.
          Slots of rounds a (crashed or starved) process never completed
          hold the empty set; [completed] says how far each process got. *)
  heard_of : Heard_of.t;  (** The raw heard-of record behind [induced]. *)
  completed : int array;  (** Rounds completed by each process. *)
  crashed : Rrfd.Pset.t;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;  (** Lost to the adversary. *)
  messages_duplicated : int;  (** Extra copies the adversary injected. *)
  messages_tampered : int;
      (** Sends whose content a Byzantine sender replaced.  When the
          adversary has [Byz] atoms, corrupt/equivocating members replay
          their own round-[r−1] emission under a round-[r] tag (and
          forging members additionally inject future-round messages), so
          the recorded heard-of sets gain a "lied" component — see
          {!Heard_of.to_lie_history}.  Lies change content only; the
          delay schedule is bit-identical to the byz-free run. *)
  virtual_time : float;  (** Simulated time at which the run drained. *)
  counters : Rrfd.Counters.t;
      (** Work accounting in the engine's vocabulary, measuring what the
          wire actually did: [rounds] of the extracted history, [messages]
          physically delivered (retransmissions and catch-up help
          included), zero detector queries. *)
}

val round_tags : (int, int, unit) Rrfd.Algorithm.t
(** The payload-free driver, for callers that read only the induced
    history, the heard-of record and the counts.  A process's state is
    its last completed round and its round-[r] emission is that state,
    [r − 1]; it never decides.  One process's emissions differ exactly
    when their rounds differ, as full-information views do, and the
    layer decides lies by comparing a delivered payload with the
    sender's own emissions, so the tamper draws, the lied sets and every
    count equal those of {!Rrfd.Full_info.algorithm} on the same seed
    and adversary, Byzantine atoms included. *)

val run :
  ?seed:int ->
  ?crashes:(Rrfd.Proc.t * float) list ->
  ?adversary:Adversary.t ->
  ?retransmit_every:float ->
  n:int ->
  f:int ->
  rounds:int ->
  algorithm:('s, 'm, 'out) Rrfd.Algorithm.t ->
  unit ->
  'out result
(** [run ~n ~f ~rounds ~algorithm ()] executes [algorithm] for [rounds]
    simulated rounds over the asynchronous network.  [crashes] lists
    processes and the virtual times at which they crash (at most [f] of
    them, or the waiting rule could block the survivors).

    [adversary] damages non-loopback messages (see {!Adversary}); when one
    is present the repair protocol is enabled with retransmission period
    [retransmit_every] (default 10.0) until virtual time 600.0.  Passing
    [retransmit_every] explicitly enables repair even without an
    adversary.  Without repair the fault-free behaviour — including its
    random delay stream — is unchanged.
    @raise Invalid_argument if [rounds < 1], if [f] is outside
    [\[0, n)], if more than [f] crashes are requested or if
    [retransmit_every <= 0]. *)

val execution : 'out result -> 'out Rrfd.Substrate.execution
(** The ["msgnet"] substrate's uniform view of one {!run} result.
    [decision_rounds] reports the last completed round of each decided
    process (the layer has no global round clock), [rounds_used] is the
    length of [induced], [completed] may be ragged when crashes or loss
    starve a process, and [violation] and [wall_ns] are [None]. *)
