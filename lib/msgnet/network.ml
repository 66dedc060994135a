module Pset = Rrfd.Pset

type 'msg signed = {
  seq : int;
  signer : Rrfd.Proc.t;
  receiver : Rrfd.Proc.t;
  sent_at : float;
  payload : 'msg;
}

type 'msg tamper =
  behaviour:Adversary.byz_behaviour ->
  now:float ->
  from:Rrfd.Proc.t ->
  to_:Rrfd.Proc.t ->
  'msg ->
  'msg option

type 'msg t = {
  sim : Dsim.Sim.t;
  n : int;
  min_delay : float;
  max_delay : float;
  adversary : Adversary.t;
  tamper : 'msg tamper option;
  log_sends : bool;
  deliver : Dsim.Sim.t -> to_:Rrfd.Proc.t -> from:Rrfd.Proc.t -> 'msg -> unit;
  plan : Float.Array.t; (* the adversary's per-copy delays for one send *)
  redraw : Float.Array.t -> int -> unit; (* a fresh base delay for a duplicate *)
  clock : unit -> float; (* the send time, for partition atoms *)
  delays : Float.Array.t; (* one broadcast's copies, in send order: delays *)
  tags : int array; (* ... and [tag ~id ~to_] *)
  run_action : Dsim.Sim.t -> int -> unit; (* [deliver_copy] on this network *)
  (* Payloads of the broadcasts in flight, by id.  Entry 0 is the first
     payload ever broadcast, the filler of every free entry. *)
  mutable payloads : 'msg array;
  mutable senders : int array;
  mutable refs : int array; (* an id's copies not yet delivered *)
  mutable free : int; (* a released id, or 0; [senders] chains the rest *)
  mutable crashed : Pset.t;
  mutable log : 'msg signed list; (* newest first *)
  mutable seq : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable tampered : int;
  mutable lost_to_crash : int;
}

(* [Dsim.Rng.float] over the delay bounds, computed here from the same 53
   bits so the delay stays unboxed without cross-module inlining. *)
let[@inline] pick_delay t =
  t.min_delay
  +. (t.max_delay -. t.min_delay)
     *. (Float.of_int (Dsim.Rng.bits53 (Dsim.Sim.rng t.sim)) /. 9007199254740992.0)

(* A copy's tag packs its payload id above its receiver. *)
let to_bits = 30

let () = assert (Pset.max_universe <= 1 lsl to_bits)

let[@inline] tag ~id ~to_ = (id lsl to_bits) lor to_

(* A payload id for [msg] from [from] with no copies yet: a released one,
   or a new one at the end of grown tables. *)
let acquire t ~from msg =
  let id =
    if t.free <> 0 then begin
      let id = t.free in
      t.free <- Array.unsafe_get t.senders id;
      id
    end
    else begin
      let used = Array.length t.payloads in
      let id = Int.max used 1 in
      let cap = Int.max (2 * used) (t.n + 2) in
      let grown = Array.make cap (if used = 0 then msg else t.payloads.(0)) in
      Array.blit t.payloads 0 grown 0 used;
      t.payloads <- grown;
      let senders = Array.make cap 0 and refs = Array.make cap 0 in
      Array.blit t.senders 0 senders 0 used;
      Array.blit t.refs 0 refs 0 used;
      t.senders <- senders;
      t.refs <- refs;
      (* Chain the new ids past [id] onto the free list. *)
      for fresh = cap - 1 downto id + 1 do
        senders.(fresh) <- t.free;
        t.free <- fresh
      done;
      id
    end
  in
  t.payloads.(id) <- msg;
  t.senders.(id) <- from;
  id

(* Returns [id] to the free list, its payload entry reset to the filler so
   the table keeps no delivered payload alive. *)
let release t id =
  t.payloads.(id) <- t.payloads.(0);
  t.senders.(id) <- t.free;
  t.free <- id

(* Runs one broadcast copy: counts it against its payload, then delivers
   it unless its receiver has crashed. *)
let[@inline] deliver_copy t sim tag =
  let id = tag lsr to_bits and to_ = tag land ((1 lsl to_bits) - 1) in
  let msg = Array.unsafe_get t.payloads id and from = Array.unsafe_get t.senders id in
  let left = Array.unsafe_get t.refs id - 1 in
  Array.unsafe_set t.refs id left;
  if left = 0 then release t id;
  if Pset.mem to_ t.crashed then t.lost_to_crash <- t.lost_to_crash + 1
  else begin
    t.delivered <- t.delivered + 1;
    t.deliver sim ~to_ ~from msg
  end

(* A broadcast to fewer receivers than this is a loop of [send]s, one
   plain event per copy.  Timed in one binary (DESIGN.md), a run per
   broadcast costs the round layer under drop:p=15+dup:p=15 3% more than
   per-copy events at 4 receivers, the same at 6 and 8, and 4–12% less
   from 12 up; inside [Check.Derive], at 4 receivers, 8% more. *)
let run_fanout = 8

let create ~sim ~n ?(min_delay = 1.0) ?(max_delay = 10.0)
    ?(adversary = Adversary.none) ?tamper ?(log_sends = false) ~deliver () =
  if n < 1 || n > Pset.max_universe then invalid_arg "Network.create: bad n";
  if min_delay < 0.0 || max_delay < min_delay then
    invalid_arg "Network.create: bad delay bounds";
  (* Room for one broadcast's copies, if any broadcast can be a run. *)
  let batch = if n >= run_fanout then n * Adversary.max_copies adversary else 0 in
  let rec t =
    {
      sim;
      n;
      min_delay;
      max_delay;
      adversary;
      tamper;
      log_sends;
      deliver;
      plan = Float.Array.create (Adversary.max_copies adversary);
      redraw = (fun out k -> Float.Array.unsafe_set out k (pick_delay t));
      clock = (fun () -> Dsim.Sim.now sim);
      delays = Float.Array.create batch;
      tags = Array.make batch 0;
      run_action = (fun sim tag -> deliver_copy t sim tag);
      payloads = [||];
      senders = [||];
      refs = [||];
      free = 0;
      crashed = Pset.empty;
      log = [];
      seq = 0;
      sent = 0;
      delivered = 0;
      dropped = 0;
      duplicated = 0;
      tampered = 0;
      lost_to_crash = 0;
    }
  in
  t

let n t = t.n

(* A signature here is an unforgeable stamp of the true origin: the
   network records [signer = from] no matter what the payload claims, so
   tampered content stays attributable.  Entries are appended at send
   time, before the delay plan — a dropped copy was still emitted, and
   its signature is exactly the evidence an accountability audit needs. *)
let log_signed t ~from ~to_ msg =
  if t.log_sends then begin
    t.log <-
      {
        seq = t.seq;
        signer = from;
        receiver = to_;
        sent_at = Dsim.Sim.now t.sim;
        payload = msg;
      }
      :: t.log;
    t.seq <- t.seq + 1
  end

(* Byzantine senders lie about content before the wire sees the message;
   the hook only ever fires for processes the adversary marks Byzantine,
   so honest payloads are untouchable by construction (lie-attribution
   soundness).  The hook closes over its own rng stream, keeping the
   benign delay schedule bit-identical whether or not anyone lies.
   Loopback traffic never leaves the process, so nobody can touch it. *)
let on_wire t ~from ~to_ msg =
  if Rrfd.Proc.equal from to_ then msg
  else
    match t.tamper with
    | None -> msg
    | Some tamper -> (
        match Adversary.byz_behaviour t.adversary from with
        | None -> msg
        | Some behaviour -> (
            match tamper ~behaviour ~now:(Dsim.Sim.now t.sim) ~from ~to_ msg with
            | Some forged ->
                t.tampered <- t.tampered + 1;
                forged
            | None -> msg))

(* Plans one send's copies in [t.plan], whose first cell holds the drawn
   delay, and returns how many the adversary lets through.  Loopback
   traffic never leaves the process, so the adversary cannot touch it —
   a process always hears itself. *)
let plan t ~from ~to_ =
  if Rrfd.Proc.equal from to_ || Adversary.is_noop t.adversary then 1
  else
    let copies =
      Adversary.plan_into t.adversary
        (Dsim.Sim.rng t.sim)
        ~now:t.clock ~from ~to_ ~redraw:t.redraw t.plan
    in
    if copies = 0 then t.dropped <- t.dropped + 1
    else t.duplicated <- t.duplicated + copies - 1;
    copies

let check_procs ~from ~to_ t =
  if to_ < 0 || to_ >= t.n || from < 0 || from >= t.n then
    invalid_arg "Network.send: process out of range"

let send t ~from ~to_ ?delay msg =
  check_procs ~from ~to_ t;
  if not (Pset.mem from t.crashed) then begin
    Float.Array.set t.plan 0
      (match delay with Some d -> d | None -> pick_delay t);
    t.sent <- t.sent + 1;
    let msg = on_wire t ~from ~to_ msg in
    log_signed t ~from ~to_ msg;
    (* The closure is built here, not in a helper, so the simulator's
       inlined [schedule] takes each copy's delay unboxed. *)
    for k = 0 to plan t ~from ~to_ - 1 do
      Dsim.Sim.schedule t.sim ~delay:(Float.Array.get t.plan k) (fun sim ->
          if Pset.mem to_ t.crashed then t.lost_to_crash <- t.lost_to_crash + 1
          else begin
            t.delivered <- t.delivered + 1;
            t.deliver sim ~to_ ~from msg
          end)
    done
  end

(* Every copy is drawn, tampered, signed and planned exactly as [send]
   would, receiver by receiver, but handed to the simulator in one
   [schedule_run]: a copy's delay, and a tag naming its receiver and its
   payload — the broadcast's shared payload, or its own when the hook
   forged it. *)
let broadcast t ~from ?(self = true) msg =
  check_procs ~from ~to_:from t;
  if (if self then t.n else t.n - 1) < run_fanout then
    for to_ = 0 to t.n - 1 do
      if self || not (Rrfd.Proc.equal to_ from) then send t ~from ~to_ msg
    done
  else if not (Pset.mem from t.crashed) then begin
    let sim = t.sim in
    let mark = Dsim.Sim.scheduled sim in
    let shared = acquire t ~from msg and len = ref 0 in
    for to_ = 0 to t.n - 1 do
      if self || not (Rrfd.Proc.equal to_ from) then begin
        Float.Array.unsafe_set t.plan 0 (pick_delay t);
        t.sent <- t.sent + 1;
        let wire = on_wire t ~from ~to_ msg in
        log_signed t ~from ~to_ wire;
        let copies = plan t ~from ~to_ in
        if copies > 0 then begin
          let id = if wire == msg then shared else acquire t ~from wire in
          Array.unsafe_set t.refs id (Array.unsafe_get t.refs id + copies);
          for k = 0 to copies - 1 do
            Float.Array.unsafe_set t.delays !len (Float.Array.unsafe_get t.plan k);
            Array.unsafe_set t.tags !len (tag ~id ~to_);
            incr len
          done
        end
      end
    done;
    if t.refs.(shared) = 0 then release t shared;
    if Dsim.Sim.scheduled sim <> mark then
      invalid_arg "Network.broadcast: a hook scheduled an event mid-broadcast";
    Dsim.Sim.schedule_run sim ~delays:t.delays ~tags:t.tags ~len:!len t.run_action
  end

let crash t p =
  if p < 0 || p >= t.n then invalid_arg "Network.crash: process out of range";
  t.crashed <- Pset.add p t.crashed

let crashed t = t.crashed
let signed_log t = List.rev t.log
let messages_tampered t = t.tampered
let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let messages_duplicated t = t.duplicated
let messages_lost_to_crash t = t.lost_to_crash
