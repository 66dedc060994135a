(* The event queue is a binary min-heap ordered by (time, seq), where
   [seq] is the insertion index, so events at equal times run in
   insertion order.  A heap entry is an unboxed triple spread over three
   parallel arrays — a [Float.Array.t] of times, an [int array] of
   sequence numbers and an [int array] of slots — so comparisons read
   flat memory and sifting moves no pointer.  Each event's thunk is
   written once into [thunks] at its slot and stays there until the
   event runs.  [slots] is always a permutation of [0, capacity): the
   entries past [size] are the free slots, taken from position [size] by
   a push and returned there by a pop.  The clock is a one-cell
   [Float.Array.t] for the same reason: a mutable float field of a mixed
   record would box on every write.

   When [run] drains the queue it may park the arrays with its domain
   (see [park]); the next simulator to push onto an empty queue adopts
   them whole, so a campaign of simulators does not regrow its queue
   from nothing for every execution.

   The queue lives in this module rather than its own: a float argument
   passed across a module boundary is boxed whenever the callee cannot
   be inlined, which is always under [-opaque] (dune's dev profile).
   Here [push] inlines into [schedule]/[schedule_at] and the time stays
   in a register. *)

type t = {
  clock : Float.Array.t;
  mutable queue : queue;
  mutable size : int;
  mutable high : int;  (* most events queued at once in [queue] *)
  mutable next_seq : int;
  random : Rng.t;
  mutable executed : int;
}

and queue = {
  times : Float.Array.t;
  seqs : int array;
  slots : int array;
  thunks : (t -> unit) array;
}

(* Fills every free slot of [thunks], so the queue never keeps a popped
   event's closure, or what it captured, alive. *)
let nop (_ : t) = ()

let empty = { times = Float.Array.create 0; seqs = [||]; slots = [||]; thunks = [||] }

(* The queue storage parked on this domain, or [empty].  Only domains run
   simulators here (no systhreads are linked), so no two threads ever
   touch one cell at once. *)
let parked = Domain.DLS.new_key (fun () -> ref empty)

let create ?(seed = 0) () =
  {
    clock = Float.Array.make 1 0.0;
    queue = empty;
    size = 0;
    high = 0;
    next_seq = 0;
    random = Rng.create seed;
    executed = 0;
  }

let[@inline] now sim = Float.Array.unsafe_get sim.clock 0

let rng sim = sim.random

let pending sim = sim.size

let executed sim = sim.executed

(* Hands a drained simulator's storage to its domain, where the next
   simulator to schedule onto an empty queue adopts it.  Every thunk slot
   is [nop] once the queue is empty, so parked storage keeps no event
   alive.  Only storage that was at least a quarter full at its peak is
   parked, so one outsized run does not pin its arrays on the domain once
   smaller runs follow. *)
let park sim =
  let capacity = Array.length sim.queue.slots in
  if capacity > 0 && 4 * sim.high >= capacity then begin
    Domain.DLS.get parked := sim.queue;
    sim.queue <- empty;
    sim.high <- 0
  end

(* Called on a full queue: an empty one adopts the domain's parked
   storage if there is any; otherwise the capacity doubles and the new
   slots join the free tail of [slots]. *)
let grow sim =
  let q = sim.queue and spare = Domain.DLS.get parked in
  let old = Array.length q.slots in
  if old = 0 && !spare != empty then begin
    sim.queue <- !spare;
    spare := empty
  end
  else begin
    let capacity = max 8 (2 * old) in
    let times = Float.Array.create capacity in
    Float.Array.blit q.times 0 times 0 old;
    let seqs = Array.make capacity 0 in
    Array.blit q.seqs 0 seqs 0 old;
    let slots = Array.init capacity Fun.id in
    Array.blit q.slots 0 slots 0 old;
    let thunks = Array.make capacity nop in
    Array.blit q.thunks 0 thunks 0 old;
    sim.queue <- { times; seqs; slots; thunks }
  end

(* Index arithmetic below stays within [0, size] and [size] is below the
   capacity, so the unchecked accesses are in bounds. *)

let[@inline] move times (seqs : int array) (slots : int array) ~from ~to_ =
  Float.Array.unsafe_set times to_ (Float.Array.unsafe_get times from);
  Array.unsafe_set seqs to_ (Array.unsafe_get seqs from);
  Array.unsafe_set slots to_ (Array.unsafe_get slots from)

(* Stores the thunk in the free slot at position [size], then moves a
   hole up from there past every parent that orders after the new event
   and writes the entry into it.  The new event's [seq] exceeds every
   queued one, so on equal times the parent already comes first and only
   a strictly earlier time moves the hole. *)
let[@inline] push sim time f =
  let size = sim.size in
  if size = Array.length sim.queue.slots then grow sim;
  let { times; seqs; slots; thunks } = sim.queue in
  let slot = Array.unsafe_get slots size in
  Array.unsafe_set thunks slot f;
  let i = ref size in
  while !i > 0 && time < Float.Array.unsafe_get times ((!i - 1) lsr 1) do
    let parent = (!i - 1) lsr 1 in
    move times seqs slots ~from:parent ~to_:!i;
    i := parent
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i sim.next_seq;
  Array.unsafe_set slots !i slot;
  sim.next_seq <- sim.next_seq + 1;
  sim.size <- size + 1;
  if size >= sim.high then sim.high <- size + 1

(* 1 if the entry at [a] orders before the entry at [b], else 0, with no
   branch. *)
let[@inline] earlier times (seqs : int array) a b =
  let ta = Float.Array.unsafe_get times a and tb = Float.Array.unsafe_get times b in
  Bool.to_int (ta < tb)
  lor (Bool.to_int (ta = tb)
      land Bool.to_int (Array.unsafe_get seqs a < Array.unsafe_get seqs b))

(* Pops the top event, advances the clock to its time and runs it.  The
   pop is Floyd's bottom-up one: the hole left at the root descends along
   the earlier child all the way to a leaf, then the last entry rises
   from there to its place, which is usually near the bottom.  The popped
   event's slot is reset to [nop] and returned to the free tail.
   Requires [size > 0]. *)
let fire sim =
  let { times; seqs; slots; thunks } = sim.queue in
  let top = Array.unsafe_get slots 0 in
  let f = Array.unsafe_get thunks top in
  Array.unsafe_set thunks top nop;
  Float.Array.unsafe_set sim.clock 0 (Float.Array.unsafe_get times 0);
  let last = sim.size - 1 in
  sim.size <- last;
  let i = ref 0 and r = ref 2 in
  while !r < last do
    let c = !r - 1 + earlier times seqs !r (!r - 1) in
    move times seqs slots ~from:c ~to_:!i;
    i := c;
    r := (2 * c) + 2
  done;
  if !r = last then begin
    (* A lone left child. *)
    move times seqs slots ~from:(last - 1) ~to_:!i;
    i := last - 1
  end;
  (* The last entry is still at [last]: the descent stops above it. *)
  while !i > 0 && earlier times seqs last ((!i - 1) lsr 1) = 1 do
    let parent = (!i - 1) lsr 1 in
    move times seqs slots ~from:parent ~to_:!i;
    i := parent
  done;
  move times seqs slots ~from:last ~to_:!i;
  Array.unsafe_set slots last top;
  sim.executed <- sim.executed + 1;
  f sim

let schedule_at sim ~time f =
  if not (Float.is_finite time) then invalid_arg "Sim.schedule_at: time must be finite";
  if time < now sim then invalid_arg "Sim.schedule_at: time is in the past";
  push sim time f

let schedule sim ~delay f =
  let time = now sim +. delay in
  if not (delay >= 0.0 && Float.is_finite time) then
    invalid_arg "Sim.schedule: delay must be finite and non-negative";
  push sim time f

let step sim =
  if sim.size = 0 then false
  else begin
    fire sim;
    true
  end

let run ?until ?max_events sim =
  let horizon = match until with Some h -> h | None -> infinity in
  let budget = match max_events with Some m -> m | None -> max_int in
  let start = sim.executed in
  while
    sim.executed - start < budget
    && sim.size > 0
    && Float.Array.unsafe_get sim.queue.times 0 <= horizon
  do
    fire sim
  done;
  if sim.size = 0 then park sim
