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
  redraw : unit -> float; (* a fresh base delay for a duplicate copy *)
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

let pick_delay t =
  t.min_delay +. Dsim.Rng.float (Dsim.Sim.rng t.sim) (t.max_delay -. t.min_delay)

let create ~sim ~n ?(min_delay = 1.0) ?(max_delay = 10.0)
    ?(adversary = Adversary.none) ?tamper ?(log_sends = false) ~deliver () =
  if n < 1 || n > Pset.max_universe then invalid_arg "Network.create: bad n";
  if min_delay < 0.0 || max_delay < min_delay then
    invalid_arg "Network.create: bad delay bounds";
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
      redraw = (fun () -> pick_delay t);
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
let adversary t = t.adversary

let schedule_delivery t ~from ~to_ ~delay msg =
  Dsim.Sim.schedule t.sim ~delay (fun sim ->
      if Pset.mem to_ t.crashed then t.lost_to_crash <- t.lost_to_crash + 1
      else begin
        t.delivered <- t.delivered + 1;
        t.deliver sim ~to_ ~from msg
      end)

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

let send t ~from ~to_ ?delay msg =
  if to_ < 0 || to_ >= t.n || from < 0 || from >= t.n then
    invalid_arg "Network.send: process out of range";
  if not (Pset.mem from t.crashed) then begin
    let delay = match delay with Some d -> d | None -> pick_delay t in
    t.sent <- t.sent + 1;
    (* Byzantine senders lie about content before the wire sees the
       message; the hook only ever fires for processes the adversary
       marks Byzantine, so honest payloads are untouchable by
       construction (lie-attribution soundness).  The hook closes over
       its own rng stream, keeping the benign delay schedule
       bit-identical whether or not anyone lies. *)
    let msg =
      if Rrfd.Proc.equal from to_ then msg
      else
        match t.tamper with
        | None -> msg
        | Some tamper -> (
            match Adversary.byz_behaviour t.adversary from with
            | None -> msg
            | Some behaviour -> (
                match
                  tamper ~behaviour ~now:(Dsim.Sim.now t.sim) ~from ~to_ msg
                with
                | Some forged ->
                    t.tampered <- t.tampered + 1;
                    forged
                | None -> msg))
    in
    log_signed t ~from ~to_ msg;
    (* Loopback traffic never leaves the process, so the adversary cannot
       touch it — a process always hears itself. *)
    if Rrfd.Proc.equal from to_ || Adversary.is_noop t.adversary then
      schedule_delivery t ~from ~to_ ~delay msg
    else
      let copies =
        Adversary.plan_into t.adversary
          (Dsim.Sim.rng t.sim)
          ~now:(Dsim.Sim.now t.sim) ~from ~to_ ~delay ~redraw:t.redraw t.plan
      in
      if copies = 0 then t.dropped <- t.dropped + 1
      else begin
        t.duplicated <- t.duplicated + copies - 1;
        for k = 0 to copies - 1 do
          schedule_delivery t ~from ~to_ ~delay:(Float.Array.get t.plan k) msg
        done
      end
  end

let broadcast t ~from ?(self = true) msg =
  for to_ = 0 to t.n - 1 do
    if self || not (Rrfd.Proc.equal to_ from) then send t ~from ~to_ msg
  done

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
