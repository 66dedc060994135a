(** Theorem 4.3: simulating synchronous {e crash} faults in an asynchronous
    snapshot system, three asynchronous rounds per simulated round.

    Each simulated synchronous round [r] runs as a group of three
    asynchronous rounds:

    + the process writes its simulated round-[r] value and snapshots; the
      processes it misses join its proposed-crashed set [F_i];
    + and 3. the processes run [n] adopt-commit protocols in parallel, one
      per target [p_j], with input ["p_j-faulty"] if [j ∈ F_i] and
      ["p_j-alive(v)"] otherwise.

    A target committed faulty delivers [⊥] (it {e crashed} this simulated
    round); a target adopted faulty joins [F_i] but its value — obtained from
    an alive proposal read during the protocol — is still delivered, so a
    process appears crashed only once somebody commits it, and then
    adopt-commit agreement forces everyone to commit it from the next
    simulated round on: the crash-closure predicate holds.

    {b Implementation note} (documented in DESIGN.md): the paper asserts that
    a process that ends with {e adopt} "p_j-faulty" must have read an alive
    proposal carrying [p_j]'s value.  With votes that carry only the voter's
    own input this can fail (the alive proposal may hide behind an
    intermediate adopter), so our second-round votes also carry a {e witness}
    — the alive value the voter saw, if any — which restores the paper's
    claim in every case. *)

type 'm proposal = Faulty | Alive of 'm

type ('s, 'm) state
(** Simulator state wrapping the synchronous algorithm's state. *)

type 'm message
(** Messages of the simulating asynchronous algorithm. *)

val algorithm :
  sync:('s, 'm, 'out) Algorithm.t -> (('s, 'm) state, 'm message, 'out) Algorithm.t
(** [algorithm ~sync] is the asynchronous RRFD algorithm simulating [sync].
    Run it under a detector satisfying [Predicate.snapshot ~f:k]; three
    asynchronous rounds advance one synchronous round.  Its [decide] returns
    [sync]'s decision, except that a process that committed {e itself}
    faulty never decides (its simulated view is not that of a live process —
    Corollary 4.4).  Synchronous messages are compared with polymorphic
    equality. *)

val async_rounds : sync_rounds:int -> int
(** [async_rounds ~sync_rounds] is [3 * sync_rounds]. *)

val sync_rounds_completed : ('s, 'm) state -> int

val self_crashed : ('s, 'm) state -> bool
(** Whether this process committed itself faulty at some simulated round. *)

val missing_witnesses : ('s, 'm) state -> int
(** Number of adopt-faulty resolutions for which no alive value was
    available (expected 0; see the implementation note above). *)

val simulated_history : ('s, 'm) state array -> Fault_history.t
(** The synchronous fault history induced by the simulation:
    [D_sync(i,r) = { j :] process [i] committed [j] faulty at simulated round
    [r }].  All states must have completed the same number of simulated
    rounds. *)

val check_simulated :
  f:int -> k:int -> ('s, 'm) state array -> string option
(** Verifies the theorem's conclusion on a completed run: the simulated
    history is a legal synchronous {e crash} history with at most [f] faults
    — cumulative union ≤ [f] and ≤ [k·r] by every round [r], and crash
    closure among processes that never committed themselves faulty.
    Returns a description of the earliest violation, or [None]. *)
