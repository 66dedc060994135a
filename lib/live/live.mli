(** The live substrate: one OCaml domain per process, real scheduling.

    Every other substrate in the repository is a deterministic simulation
    whose nondeterminism comes from an RNG.  Here the processes are
    actual [Domain]s exchanging round-tagged messages through
    {!Mailbox}es, and a round ends when the process's {!Patience} policy
    says so — whom it heard from by then is decided by the operating
    system's scheduler, not by an adversary model.  Omission and
    asynchrony are {e observed}, and the per-round heard-from records are
    collected into exactly the paper's fault history [{D(i,r)}]
    ({!Msgnet.Heard_of}), which the abstract engine can replay pinned
    ([Protocols.Catalog.replay], judged by {!Rrfd.Substrate.agrees}) —
    the communication-closed reduction (Damian et al.) run in the forward
    direction, validating the model against
    reality instead of against another simulation.

    Execution discipline: every process runs the full round horizon (no
    process can observe that everybody else decided), it always hears
    itself (so [i ∉ D(i,r)] and [D ≠ S] by construction), and a message
    arriving for an already-completed round is dropped — which is what
    makes the run communication-closed and the pinned replay exact.

    Everything cross-domain goes through the mailboxes; the per-process
    buffers, logs and decision slots are owned by one domain until the
    join, so the runner is data-race-free by construction. *)

module Patience = Patience
(** Round-completion policies ({!Patience.t}), re-exported as the
    library's entry point is this module. *)

module Mailbox = Mailbox
(** The inter-domain channel, re-exported for tests and benchmarks. *)

val max_processes : int
(** Largest supported [n] (127): this substrate spawns one OCaml domain
    per process and the runtime allows 128 domains, the calling one
    included.  The CLI's [-j] shares this cap.  Simulated substrates
    scale far wider — see {!Rrfd.Pset.max_universe}. *)

val run :
  ?patience:Patience.t ->
  n:int ->
  f:int ->
  rounds:int ->
  algorithm:('s, 'm, 'out) Rrfd.Algorithm.t ->
  unit ->
  'out Rrfd.Substrate.execution
(** Spawn [n − 1] domains (the calling domain runs process 0), drive
    [algorithm] for exactly [rounds] rounds under [patience] (default
    {!Patience.Wait_quorum} with the given [f]) and collect the uniform
    observation, the ["live"] substrate's execution:
    - [decision_rounds] holds the round whose delivery first made
      [decide] answer [Some _].
    - [induced] is the extracted heard-of fault history: [D(i,r)] is
      the complement of what [i] had heard when its patience for round
      [r] ran out.
    - [rounds_used] and every [completed.(i)] are the full horizon
      [rounds]: live processes never stop early, so [crashed] is empty.
    - [counters.messages] counts accepted deliveries (a slot filed into
      a live round buffer, self included), which equals
      [Σ_{i,r} (n − |D(i,r)|)] — the engine's vocabulary.  No detector
      is ever queried and no predicate checked ([violation = None]).
    - [wall_ns] is [Some] of the real elapsed time of the whole run —
      the only substrate whose executions carry one.

    Re-raises the first exception any process's algorithm raised, after
    every domain has been joined.
    @raise Invalid_argument if [n] is outside [1..max_processes],
    [f < 0], [f ≥ n] or [rounds < 0]. *)

val effective_jobs : ?jobs:int -> n_procs:int -> unit -> int
(** Worker-domain budget for a campaign whose trials each spawn
    [n_procs] domains: [min jobs (recommended_domain_count / n_procs)],
    floored at 1.  Without the cap a live campaign oversubscribes the
    machine quadratically (pool workers × process domains), which both
    distorts deadline-patience runs and slows everything down. *)
