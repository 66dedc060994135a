(** Discrete-event simulator core.

    A simulator owns a virtual clock and an event queue.  Events are thunks
    scheduled at virtual times; running the simulator pops events in time
    order (insertion order within a time instant) and executes them, which may
    schedule further events.  The substrate libraries ([msgnet],
    [semisync]) build their network and timing models on top of this loop.

    The queue is a binary heap of unboxed (time, insertion index, slot)
    entries.  Each event's thunk is written once into a slot table and
    stays put until it runs; a pop is Floyd's bottom-up one.  Scheduling
    and executing an event allocate nothing beyond the queue's occasional
    capacity doubling, and the queue drops each event's closure once it
    has run.  When {!run} drains the queue, the simulator hands its queue
    storage to its domain, and the next simulator on that domain to
    schedule onto an empty queue takes it over instead of allocating.
    Storage is handed over only if it was at least a quarter full at its
    peak, so an outsized run does not stay pinned on the domain.  None of
    this changes the order in which events run.

    A caller with many events to schedule at once, such as a network
    broadcast, can hand them over as a run ({!schedule_run}).  The queue
    then holds one entry for the whole run, keyed on its next event, and
    moves that entry to the event after it each time one runs.  The
    queue's depth is then the number of runs and plain events in flight,
    not the number of events.  A run's events still run in exactly the
    order their plain counterparts would.  A finished run's storage goes
    to a pool the next run takes from, and the pool is parked with the
    queue; a pooled record or sort buffer more than four times the
    simulator's longest run is dropped then, so an outsized run does not
    stay pinned. *)

type t
(** A simulator instance. *)

val create : ?seed:int -> unit -> t
(** [create ?seed ()] is a fresh simulator whose clock reads [0.0].
    [seed] (default 0) initialises the simulator's random stream. *)

val now : t -> float
(** [now sim] is the current virtual time. *)

val rng : t -> Rng.t
(** [rng sim] is the simulator's deterministic random stream. *)

val schedule : t -> delay:float -> (t -> unit) -> unit
(** [schedule sim ~delay f] arranges for [f sim] to run at time
    [now sim +. delay].
    @raise Invalid_argument if [delay] is negative or NaN, or if
    [now sim +. delay] is not finite. *)

val schedule_at : t -> time:float -> (t -> unit) -> unit
(** [schedule_at sim ~time f] arranges for [f sim] to run at absolute virtual
    time [time].
    @raise Invalid_argument if [time] is in the past or not finite. *)

val schedule_run :
  t -> delays:Float.Array.t -> tags:int array -> len:int -> (t -> int -> unit) -> unit
(** [schedule_run sim ~delays ~tags ~len action] schedules [len] events
    at once: event [j] runs [action sim tags.(j)] after [delays.(j)].  It
    behaves exactly like the [len] calls
    [schedule sim ~delay:delays.(j) (fun sim -> action sim tags.(j))]
    for [j = 0 .. len - 1], in that order: each event gets the next
    sequence number, and events run in (time, sequence) order among
    everything else queued.  The events form one queue entry, and
    running one allocates nothing.  [action] must be a closure the
    caller keeps (one per caller, not one per run), or a run allocates
    it.  The call overwrites [delays.(0 .. len-1)] with the events'
    times and reads neither array afterwards, so the caller may reuse
    both at once.  [len = 0] schedules nothing.
    @raise Invalid_argument if [len] is negative or exceeds either
    array, or if a delay is negative or NaN or makes a time that is not
    finite; nothing is scheduled then. *)

val pending : t -> int
(** [pending sim] is the number of events still queued: plain events plus
    every run's events that have not run yet. *)

val scheduled : t -> int
(** [scheduled sim] is the number of events ever scheduled on [sim], plain
    and run events alike; the next event scheduled gets this sequence
    number. *)

val step : t -> bool
(** [step sim] executes the next event.  Returns [false] when the queue is
    empty (and the clock does not move). *)

val run : ?until:float -> ?max_events:int -> t -> unit
(** [run ?until ?max_events sim] executes events until the queue drains, the
    clock passes [until], or [max_events] events have run, whichever comes
    first.  Events scheduled exactly at [until] still execute. *)

val executed : t -> int
(** [executed sim] is the total number of events executed so far; each
    event of a run counts once. *)
