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

   [schedule_run] takes a batch of tagged events at once and queues it
   as a run: one entry whose thunk is the [run_marker] sentinel, its
   events in the [run] record whose id [cargo] files under its slot,
   sorted on (time, seq).  The entry is keyed on the run's next event;
   running that event re-keys the entry to the one after it with a
   single sift-down from the root, and only the last event pops it.  The heap
   is then a k-way merge of the runs and the plain events, so events
   still run in exactly (time, seq) order, while the heap holds one
   entry per run instead of one per event.

   When [run] drains the queue it may park the arrays with its domain
   (see [park]); the next simulator to push onto an empty queue adopts
   them whole, pooled run records included, so a campaign of simulators
   does not regrow its queue from nothing for every execution.

   The queue lives in this module rather than its own: a float argument
   passed across a module boundary is boxed whenever the callee cannot
   be inlined, which is always under [-opaque] (dune's dev profile).
   Here [push] inlines into [schedule]/[schedule_at] and the time stays
   in a register. *)

type t = {
  clock : Float.Array.t;
  mutable queue : queue;
  mutable size : int;  (* heap entries *)
  mutable behind : int;  (* runs' unrun events other than their entries' *)
  mutable high : int;  (* most entries queued at once in [queue] *)
  mutable longest : int;  (* the longest run scheduled *)
  mutable next_seq : int;
  random : Rng.t;
  mutable executed : int;
}

and queue = {
  times : Float.Array.t;
  seqs : int array;
  slots : int array;
  thunks : (t -> unit) array;
  cargo : int array;  (* per slot: a run entry's record id *)
  mutable records : run array;  (* every run record, by id *)
  mutable pool : int array;  (* ids no run is using, *)
  mutable pooled : int;  (* in [pool.(0 .. pooled-1)] *)
  mutable order : int array;  (* [schedule_run]'s sort buffers *)
  mutable spare : int array;
  mutable counts : int array;
}

(* One run's events, sorted on (time, seq); [next] indexes the event its
   heap entry is keyed on.  A record goes back to the queue's pool,
   buffers and all, when its run ends, for the next run to use.  Slots
   and the pool name records by their index in [records], so filing and
   pooling a run write ints, with no write barrier. *)
and run = {
  mutable run_times : Float.Array.t;
  mutable run_seqs : int array;
  mutable run_tags : int array;
  mutable next : int;
  mutable len : int;
  mutable action : t -> int -> unit;
}

(* Fills every free slot of [thunks], so the queue never keeps a popped
   event's closure, or what it captured, alive. *)
let nop (_ : t) = ()

let nop_action (_ : t) (_ : int) = ()

(* The thunk of every run entry; never called. *)
let run_marker (_ : t) = invalid_arg "Sim: a run entry has no thunk"

let no_run =
  {
    run_times = Float.Array.create 0;
    run_seqs = [||];
    run_tags = [||];
    next = 0;
    len = 0;
    action = nop_action;
  }

let empty =
  {
    times = Float.Array.create 0;
    seqs = [||];
    slots = [||];
    thunks = [||];
    cargo = [||];
    records = [||];
    pool = [||];
    pooled = 0;
    order = [||];
    spare = [||];
    counts = [||];
  }

(* Runs of at most this many events are sorted by insertion alone, as
   are the merge sort's blocks (see [fill_run]). *)
let small = 16

(* The queue storage parked on this domain, or [empty].  Only domains run
   simulators here (no systhreads are linked), so no two threads ever
   touch one cell at once. *)
let parked = Domain.DLS.new_key (fun () -> ref empty)

let create ?(seed = 0) () =
  {
    clock = Float.Array.make 1 0.0;
    queue = empty;
    size = 0;
    behind = 0;
    high = 0;
    longest = 0;
    next_seq = 0;
    random = Rng.create seed;
    executed = 0;
  }

let[@inline] now sim = Float.Array.unsafe_get sim.clock 0

let rng sim = sim.random

let pending sim = sim.size + sim.behind

let executed sim = sim.executed

let scheduled sim = sim.next_seq

(* Hands a drained simulator's storage to its domain, where the next
   simulator to schedule onto an empty queue adopts it.  Every thunk slot
   is [nop] or [run_marker] and every run's action [nop_action] once
   [run] has drained the queue, so parked storage keeps no event alive.
   Only storage that was at least a quarter full at its peak is parked,
   and only run records and sort buffers at most four times this
   simulator's longest run (or [small]), so one outsized run does not
   pin its arrays on the domain once smaller runs follow. *)
let park sim =
  let q = sim.queue in
  let capacity = Array.length q.slots in
  if capacity > 0 && 4 * sim.high >= capacity then begin
    let keep = 4 * Int.max sim.longest small in
    for id = 0 to Array.length q.records - 1 do
      if Float.Array.length q.records.(id).run_times > keep then q.records.(id) <- no_run
    done;
    if Array.length q.order > keep then begin
      q.order <- [||];
      q.spare <- [||];
      q.counts <- [||]
    end;
    Domain.DLS.get parked := q;
    sim.queue <- empty;
    sim.high <- 0;
    sim.longest <- 0
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
    let capacity = Int.max 8 (2 * old) in
    let times = Float.Array.create capacity in
    Float.Array.blit q.times 0 times 0 old;
    let seqs = Array.make capacity 0 in
    Array.blit q.seqs 0 seqs 0 old;
    let slots = Array.init capacity Fun.id in
    Array.blit q.slots 0 slots 0 old;
    let thunks = Array.make capacity nop in
    Array.blit q.thunks 0 thunks 0 old;
    let cargo = Array.make capacity 0 in
    Array.blit q.cargo 0 cargo 0 old;
    sim.queue <-
      {
        times;
        seqs;
        slots;
        thunks;
        cargo;
        records = q.records;
        pool = q.pool;
        pooled = q.pooled;
        order = q.order;
        spare = q.spare;
        counts = q.counts;
      }
  end

(* Index arithmetic below stays within [0, size] and [size] is below the
   capacity, so the unchecked accesses are in bounds. *)

let[@inline] move times (seqs : int array) (slots : int array) ~from ~to_ =
  Float.Array.unsafe_set times to_ (Float.Array.unsafe_get times from);
  Array.unsafe_set seqs to_ (Array.unsafe_get seqs from);
  Array.unsafe_set slots to_ (Array.unsafe_get slots from)

(* Stores the thunk in the free slot at position [size], then moves a
   hole up from there past every parent that orders after the new entry
   and writes the entry into it.  The new entry's [seq] exceeds every
   queued one, so on equal times the parent already comes first and only
   a strictly earlier time moves the hole.  Returns the slot. *)
let[@inline] push_entry sim time seq f =
  let size = sim.size in
  if size = Array.length sim.queue.slots then grow sim;
  let { times; seqs; slots; thunks; _ } = sim.queue in
  let slot = Array.unsafe_get slots size in
  Array.unsafe_set thunks slot f;
  let i = ref size in
  while !i > 0 && time < Float.Array.unsafe_get times ((!i - 1) lsr 1) do
    let parent = (!i - 1) lsr 1 in
    move times seqs slots ~from:parent ~to_:!i;
    i := parent
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i slot;
  sim.size <- size + 1;
  if size >= sim.high then sim.high <- size + 1;
  slot

let[@inline] push sim time f =
  ignore (push_entry sim time sim.next_seq f : int);
  sim.next_seq <- sim.next_seq + 1

(* 1 if the entry at [a] orders before the entry at [b], else 0, with no
   branch. *)
let[@inline] earlier times (seqs : int array) a b =
  let ta = Float.Array.unsafe_get times a and tb = Float.Array.unsafe_get times b in
  Bool.to_int (ta < tb)
  lor (Bool.to_int (ta = tb)
      land Bool.to_int (Array.unsafe_get seqs a < Array.unsafe_get seqs b))

(* Removes the root entry, whose slot is [top], and returns the slot to
   the free tail.  Floyd's bottom-up pop: the hole left at the root
   descends along the earlier child all the way to a leaf, then the last
   entry rises from there to its place, which is usually near the
   bottom.  Requires [size > 0]. *)
let[@inline] pop_root sim times seqs slots top =
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
  Array.unsafe_set slots last top

(* Re-keys the root entry, whose slot is [top], to event [k] of its run
   [r] and sifts it down past every child that orders before it.  A
   run's events follow each other closely, so the next one usually
   stays near the root and the sift stops after a level or two.  The
   key is read here, not passed in, so the time is never boxed. *)
let[@inline] rekey_root sim times (seqs : int array) (slots : int array) r k top =
  let time = Float.Array.unsafe_get r.run_times k
  and seq = Array.unsafe_get r.run_seqs k in
  let size = sim.size in
  let i = ref 0 and l = ref 1 in
  while !l < size do
    let c = if !l + 1 < size then !l + earlier times seqs (!l + 1) !l else !l in
    let tc = Float.Array.unsafe_get times c in
    if tc < time || (tc = time && Array.unsafe_get seqs c < seq) then begin
      move times seqs slots ~from:c ~to_:!i;
      i := c;
      l := (2 * c) + 1
    end
    else l := size
  done;
  Float.Array.unsafe_set times !i time;
  Array.unsafe_set seqs !i seq;
  Array.unsafe_set slots !i top

(* Returns a finished run's record to the pool.  The pool has room:
   it never holds more ids than [records] has. *)
let[@inline] give_back q id =
  Array.unsafe_set q.pool q.pooled id;
  q.pooled <- q.pooled + 1

(* Runs the next event of the run at the root.  The entry is re-keyed,
   or popped if this was the run's last event, before the action runs,
   so an action that raises leaves the queue consistent.  A pooled
   record keeps its action until the next run that takes it has another
   one, or [run] drains the queue ([drop_actions]); a free slot may keep
   [run_marker] as its thunk, a static closure that holds nothing
   alive.  Both save write barriers on every run.  Kept out of [fire],
   so a plain event's path is the same as if there were no runs. *)
let[@inline never] fire_run sim q top =
  let { times; seqs; slots; _ } = q in
  let id = Array.unsafe_get q.cargo top in
  let r = Array.unsafe_get q.records id in
  let k = r.next in
  let tag = Array.unsafe_get r.run_tags k and action = r.action in
  let k = k + 1 in
  if k < r.len then begin
    r.next <- k;
    sim.behind <- sim.behind - 1;
    rekey_root sim times seqs slots r k top
  end
  else begin
    give_back q id;
    pop_root sim times seqs slots top
  end;
  action sim tag

(* Runs the root entry's next event at its time.  Requires [size > 0].
   A plain event takes its steps in the order it did before runs
   existed: with the clock and counter updated ahead of the marker test,
   shared by both paths, plain events ran 5–15% slower at depth 128. *)
let fire sim =
  let q = sim.queue in
  let { times; seqs; slots; thunks; _ } = q in
  let top = Array.unsafe_get slots 0 in
  let f = Array.unsafe_get thunks top in
  if f == run_marker then begin
    Float.Array.unsafe_set sim.clock 0 (Float.Array.unsafe_get times 0);
    sim.executed <- sim.executed + 1;
    fire_run sim q top
  end
  else begin
    Array.unsafe_set thunks top nop;
    Float.Array.unsafe_set sim.clock 0 (Float.Array.unsafe_get times 0);
    pop_root sim times seqs slots top;
    sim.executed <- sim.executed + 1;
    f sim
  end

let[@inline] schedule_at sim ~time f =
  if not (Float.is_finite time) then invalid_arg "Sim.schedule_at: time must be finite";
  if time < now sim then invalid_arg "Sim.schedule_at: time is in the past";
  push sim time f

let[@inline] schedule sim ~delay f =
  let time = now sim +. delay in
  if not (delay >= 0.0 && Float.is_finite time) then
    invalid_arg "Sim.schedule: delay must be finite and non-negative";
  push sim time f

(* {2 Runs} *)

(* [schedule_run] sorts a run's events on (time, seq) as it copies them
   into the run's storage.  Delays are typically spread evenly over the
   network's delay bounds, so the copy first distributes the events into
   [len] buckets by time, a counting sort, after which an insertion sort
   only exchanges events within a bucket.  A comparison sort would pay a
   mispredicted branch for nearly every comparison of two random times;
   this reads each time a few times, in order.  When the times are
   skewed enough that the buckets are uneven (their sizes' squares sum
   past [skew * len]), the events are sorted by merging instead, so no
   input costs more than O(len log len).  A run of at most [small]
   events skips the buckets: an insertion sort alone is cheaper there. *)

let skew = 8

(* Insertion sort of the run's events [0 .. len-1] on (time, seq), the
   three fields moving together. *)
let[@inline] sort_run r ~len =
  let times = r.run_times and seqs = r.run_seqs and tags = r.run_tags in
  for j = 1 to len - 1 do
    let time = Float.Array.unsafe_get times j and seq = Array.unsafe_get seqs j in
    let tag = Array.unsafe_get tags j in
    let i = ref (j - 1) in
    let moving = ref true in
    while !moving do
      let ti = Float.Array.unsafe_get times !i in
      if ti > time || (ti = time && Array.unsafe_get seqs !i > seq) then begin
        Float.Array.unsafe_set times (!i + 1) ti;
        Array.unsafe_set seqs (!i + 1) (Array.unsafe_get seqs !i);
        Array.unsafe_set tags (!i + 1) (Array.unsafe_get tags !i);
        decr i;
        moving := !i >= 0
      end
      else moving := false
    done;
    if !i < j - 1 then begin
      Float.Array.unsafe_set times (!i + 1) time;
      Array.unsafe_set seqs (!i + 1) seq;
      Array.unsafe_set tags (!i + 1) tag
    end
  done

let[@inline] before times a b =
  let ta = Float.Array.unsafe_get times a and tb = Float.Array.unsafe_get times b in
  ta < tb || (ta = tb && a < b)

(* Sorts [order.(0 .. len-1)], the identity permutation, on
   (times.(j), j): insertion sort within blocks of [small], then bottom-up
   merges that alternate between [order] and [spare].  Returns the array
   that holds the result. *)
let merge_sort times ~len order spare =
  for j = 0 to len - 1 do
    Array.unsafe_set order j j
  done;
  let width = small in
  let lo = ref 0 in
  while !lo < len do
    let hi = Int.min len (!lo + width) in
    for j = !lo + 1 to hi - 1 do
      let x = Array.unsafe_get order j in
      let i = ref (j - 1) in
      while !i >= !lo && before times x (Array.unsafe_get order !i) do
        Array.unsafe_set order (!i + 1) (Array.unsafe_get order !i);
        decr i
      done;
      Array.unsafe_set order (!i + 1) x
    done;
    lo := hi
  done;
  let src = ref order and dst = ref spare and width = ref width in
  while !width < len do
    let s = !src and d = !dst and w = !width in
    let lo = ref 0 in
    while !lo < len do
      let mid = Int.min len (!lo + w) in
      let hi = Int.min len (mid + w) in
      let a = ref !lo and b = ref mid in
      for k = !lo to hi - 1 do
        if
          !b >= hi
          || (!a < mid
             && not (before times (Array.unsafe_get s !b) (Array.unsafe_get s !a)))
        then begin
          Array.unsafe_set d k (Array.unsafe_get s !a);
          incr a
        end
        else begin
          Array.unsafe_set d k (Array.unsafe_get s !b);
          incr b
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * w
  done;
  !src

(* Copies event [j] of [times] and [tags], numbered [base + j], to
   position [k] of [r]. *)
let[@inline] put r times (tags : int array) ~base k j =
  Float.Array.unsafe_set r.run_times k (Float.Array.unsafe_get times j);
  Array.unsafe_set r.run_seqs k (base + j);
  Array.unsafe_set r.run_tags k (Array.unsafe_get tags j)

(* Copies events [0 .. len-1] of [times] and [tags], numbered from
   [base], into [r] sorted on (time, seq), through the buckets when
   there are more than [small].  [q]'s buffers then hold [len] indices
   and [len + 1] counts. *)
let fill_run q r times tags ~base ~len =
  if len <= small then begin
    (* Each event is inserted into the sorted events before it.  They
       come in seq order, so moving only past later times keeps ties in
       seq order. *)
    let run_times = r.run_times and run_seqs = r.run_seqs and run_tags = r.run_tags in
    for j = 0 to len - 1 do
      let time = Float.Array.unsafe_get times j in
      let i = ref j in
      while !i > 0 && Float.Array.unsafe_get run_times (!i - 1) > time do
        Float.Array.unsafe_set run_times !i (Float.Array.unsafe_get run_times (!i - 1));
        Array.unsafe_set run_seqs !i (Array.unsafe_get run_seqs (!i - 1));
        Array.unsafe_set run_tags !i (Array.unsafe_get run_tags (!i - 1));
        decr i
      done;
      Float.Array.unsafe_set run_times !i time;
      Array.unsafe_set run_seqs !i (base + j);
      Array.unsafe_set run_tags !i (Array.unsafe_get tags j)
    done
  end
  else
  let first = ref infinity and last = ref neg_infinity in
  for j = 0 to len - 1 do
    let time = Float.Array.unsafe_get times j in
    if time < !first then first := time;
    if time > !last then last := time
  done;
  let first = !first and last = !last in
  let scale = if last > first then float_of_int len /. (last -. first) else 0.0 in
  let bucket = q.spare and counts = q.counts in
  Array.fill counts 0 (len + 1) 0;
  for j = 0 to len - 1 do
    let b =
      Int.min (len - 1)
        (int_of_float ((Float.Array.unsafe_get times j -. first) *. scale))
    in
    Array.unsafe_set bucket j b;
    Array.unsafe_set counts (b + 1) (Array.unsafe_get counts (b + 1) + 1)
  done;
  let squares = ref 0 in
  for b = 1 to len do
    let c = Array.unsafe_get counts b in
    squares := !squares + (c * c);
    Array.unsafe_set counts b (c + Array.unsafe_get counts (b - 1))
  done;
  if !squares > skew * len then begin
    let sorted = merge_sort times ~len q.order q.spare in
    for k = 0 to len - 1 do
      put r times tags ~base k (Array.unsafe_get sorted k)
    done
  end
  else begin
    for j = 0 to len - 1 do
      let b = Array.unsafe_get bucket j in
      let k = Array.unsafe_get counts b in
      Array.unsafe_set counts b (k + 1);
      put r times tags ~base k j
    done;
    sort_run r ~len
  end

let fresh_run len =
  let cap = (len + 7) land lnot 7 in
  {
    run_times = Float.Array.create cap;
    run_seqs = Array.make cap 0;
    run_tags = Array.make cap 0;
    next = 0;
    len = 0;
    action = nop_action;
  }

(* The id of a run record with room for [len] events: the last one
   pooled, its record replaced if it is too short, or a new one. *)
let take_run q len =
  if q.pooled > 0 then begin
    q.pooled <- q.pooled - 1;
    let id = Array.unsafe_get q.pool q.pooled in
    if Float.Array.length (Array.unsafe_get q.records id).run_times < len then
      q.records.(id) <- fresh_run len;
    id
  end
  else begin
    let id = Array.length q.records in
    let records = Array.make (Int.max 8 (2 * id)) no_run in
    Array.blit q.records 0 records 0 id;
    q.records <- records;
    (* Pool the new ids past [id]; the pool holds every free id. *)
    let pool = Array.make (Array.length records) 0 in
    for spare = Array.length records - 1 downto id + 1 do
      pool.(q.pooled) <- spare;
      q.pooled <- q.pooled + 1
    done;
    q.pool <- pool;
    records.(id) <- fresh_run len;
    id
  end

(* Drops the action of every pooled record, so a drained queue keeps no
   event's closure alive. *)
let drop_actions q =
  for k = 0 to q.pooled - 1 do
    let r = Array.unsafe_get q.records (Array.unsafe_get q.pool k) in
    if r.action != nop_action then r.action <- nop_action
  done

let schedule_run sim ~delays ~tags ~len action =
  if len < 0 || len > Float.Array.length delays || len > Array.length tags then
    invalid_arg "Sim.schedule_run: bad length";
  (* From here on [delays] holds the events' times. *)
  let times = delays in
  for j = 0 to len - 1 do
    let delay = Float.Array.unsafe_get delays j in
    let time = now sim +. delay in
    if not (delay >= 0.0 && Float.is_finite time) then
      invalid_arg "Sim.schedule_run: delay must be finite and non-negative";
    Float.Array.unsafe_set times j time
  done;
  let base = sim.next_seq in
  if len > 0 then begin
    (* The run is filed under the free slot the push below takes: grow
       first, so that is a slot of the queue the push keeps or adopts. *)
    if sim.size = Array.length sim.queue.slots then grow sim;
    let q = sim.queue in
    let id = take_run q len in
    Array.unsafe_set q.cargo (Array.unsafe_get q.slots sim.size) id;
    let r = Array.unsafe_get q.records id in
    if len > small && Array.length q.order < len then begin
      q.order <- Array.make len 0;
      q.spare <- Array.make len 0;
      q.counts <- Array.make (len + 1) 0
    end;
    fill_run q r times tags ~base ~len;
    r.next <- 0;
    r.len <- len;
    if r.action != action then r.action <- action;
    ignore
      (push_entry sim (Float.Array.unsafe_get r.run_times 0)
         (Array.unsafe_get r.run_seqs 0) run_marker
        : int);
    sim.next_seq <- base + len;
    sim.behind <- sim.behind + len - 1;
    if len > sim.longest then sim.longest <- len
  end

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
  if sim.size = 0 then begin
    drop_actions sim.queue;
    park sim
  end
