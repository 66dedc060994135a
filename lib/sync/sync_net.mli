(** Lock-step synchronous execution of RRFD algorithms under fault
    injection.

    This is "system N" of items 1 and 2: real synchronous rounds in which a
    process sends to everybody and, by the end of the round, has received
    every message sent to it by a process that did not fail.  Running an
    algorithm here both executes it and {e derives} the RRFD fault history
    — [D(i,r)] is simply the set of senders process [i] failed to hear — so
    the model-correspondence experiments can check the derived history
    against the item-1/item-2 predicates. *)

val run :
  n:int ->
  rounds:int ->
  pattern:Faults.t ->
  algorithm:('s, 'm, 'out) Rrfd.Algorithm.t ->
  ?check:Rrfd.Predicate.t ->
  ?stop_when_decided:bool ->
  unit ->
  'out Rrfd.Substrate.execution
(** [run ~n ~rounds ~pattern ~algorithm ()] executes up to [rounds]
    synchronous rounds.  A process crashed by [pattern] stops emitting and
    stops updating its state (its pre-crash decision, if any, stands).
    With [stop_when_decided] (default true) the run ends once every
    non-crashed process has decided.

    The execution is the ["sync"] substrate's:
    - [induced] is the derived fault history.  For a process that
      crashed, later rounds record what it {e would} have missed —
      consistent with the RRFD reading in which every process keeps
      executing.
    - [crashed] holds the processes that crashed during the run, and
      [completed] the rounds each process ran to their end:
      [rounds_used], or [c − 1] for a process crashed in round [c] (its
      round-[c] messages reached only part of the system).
    - [counters] uses the engine's vocabulary: rounds executed, messages
      delivered to live processes, zero detector queries (the
      environment {e is} the detector here), predicate checks when a
      [check] was given.
    - [violation] is the earliest [check] violation of the induced
      history.  It is purely an observation: the lock-step run continues
      regardless, so the execution is otherwise identical with and
      without a check.
    - [wall_ns] is [None]. *)
