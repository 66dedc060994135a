(* The event queue is a binary min-heap ordered by (time, seq), where
   [seq] is the insertion index, so events at equal times run in
   insertion order.  It is stored as three parallel arrays — an unboxed
   [Float.Array.t] of times, an [int array] of sequence numbers and an
   array of thunks — so comparisons read flat memory and neither
   scheduling nor executing an event allocates.  The clock is a
   one-cell [Float.Array.t] for the same reason: a mutable float field
   of a mixed record would box on every write.

   The queue lives in this module rather than its own: a float argument
   passed across a module boundary is boxed whenever the callee cannot
   be inlined, which is always under [-opaque] (dune's dev profile).
   Here [push] inlines into [schedule]/[schedule_at] and the time stays
   in a register. *)

type t = {
  clock : Float.Array.t;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable thunks : (t -> unit) array;
  mutable size : int;
  mutable next_seq : int;
  random : Rng.t;
  mutable executed : int;
}

(* Fills every slot at or past [size], so the queue never keeps a popped
   event's closure, or what it captured, alive. *)
let nop (_ : t) = ()

let create ?(seed = 0) () =
  {
    clock = Float.Array.make 1 0.0;
    times = Float.Array.create 0;
    seqs = [||];
    thunks = [||];
    size = 0;
    next_seq = 0;
    random = Rng.create seed;
    executed = 0;
  }

let[@inline] now sim = Float.Array.unsafe_get sim.clock 0

let rng sim = sim.random

let pending sim = sim.size

let executed sim = sim.executed

let grow sim =
  let capacity = max 8 (2 * sim.size) in
  let times = Float.Array.create capacity in
  Float.Array.blit sim.times 0 times 0 sim.size;
  let seqs = Array.make capacity 0 in
  Array.blit sim.seqs 0 seqs 0 sim.size;
  let thunks = Array.make capacity nop in
  Array.blit sim.thunks 0 thunks 0 sim.size;
  sim.times <- times;
  sim.seqs <- seqs;
  sim.thunks <- thunks

(* Index arithmetic below stays within [0, size) and [size] is below the
   capacity, so the unchecked accesses are in bounds. *)

(* Moves a hole up from slot [size] past every parent that orders after
   the new event, then writes the event into it.  The new event's [seq]
   exceeds every queued one, so on equal times the parent already comes
   first and only a strictly earlier time moves the hole. *)
let[@inline] push sim time f =
  if sim.size = Array.length sim.seqs then grow sim;
  let times = sim.times and seqs = sim.seqs and thunks = sim.thunks in
  let i = ref sim.size in
  while !i > 0 && time < Float.Array.unsafe_get times ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    Float.Array.unsafe_set times !i (Float.Array.unsafe_get times parent);
    Array.unsafe_set seqs !i (Array.unsafe_get seqs parent);
    Array.unsafe_set thunks !i (Array.unsafe_get thunks parent);
    i := parent
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i sim.next_seq;
  Array.unsafe_set thunks !i f;
  sim.next_seq <- sim.next_seq + 1;
  sim.size <- sim.size + 1

let[@inline] before times seqs time seq j =
  let tj = Float.Array.unsafe_get times j in
  time < tj || (time = tj && seq < Array.unsafe_get seqs j)

(* Pops the top event, advances the clock to its time and runs it.  The
   last event is re-inserted by moving a hole down from the root, and its
   old slot is reset to [nop].  Requires [size > 0]. *)
let fire sim =
  let times = sim.times and seqs = sim.seqs and thunks = sim.thunks in
  let f = Array.unsafe_get thunks 0 in
  Float.Array.unsafe_set sim.clock 0 (Float.Array.unsafe_get times 0);
  let size = sim.size - 1 in
  sim.size <- size;
  let time = Float.Array.unsafe_get times size and seq = Array.unsafe_get seqs size in
  let g = Array.unsafe_get thunks size in
  Array.unsafe_set thunks size nop;
  if size > 0 then begin
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      if l >= size then sifting := false
      else begin
        let c =
          if r < size
             && before times seqs (Float.Array.unsafe_get times r) (Array.unsafe_get seqs r) l
          then r
          else l
        in
        if before times seqs time seq c then sifting := false
        else begin
          Float.Array.unsafe_set times !i (Float.Array.unsafe_get times c);
          Array.unsafe_set seqs !i (Array.unsafe_get seqs c);
          Array.unsafe_set thunks !i (Array.unsafe_get thunks c);
          i := c
        end
      end
    done;
    Float.Array.unsafe_set times !i time;
    Array.unsafe_set seqs !i seq;
    Array.unsafe_set thunks !i g
  end;
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
    && Float.Array.unsafe_get sim.times 0 <= horizon
  do
    fire sim
  done
