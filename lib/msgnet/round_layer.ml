module Pset = Rrfd.Pset

type 'out result = {
  decisions : 'out option array;
  induced : Rrfd.Fault_history.t;
  heard_of : Heard_of.t;
  completed : int array;
  crashed : Rrfd.Pset.t;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  messages_duplicated : int;
  messages_tampered : int;
  virtual_time : float;
  counters : Rrfd.Counters.t;
}

(* Wire format is [(round, payload, kind)].  [`Retry] marks a periodic
   retransmission of the sender's current round; a receiver already past
   that round answers a [`Retry] with [`Help] copies of its own cached
   emissions, which is what lets a partitioned or lossy run catch up
   after healing.  Only [`Retry] triggers help — help answering help
   would ping-pong forever between two finished processes. *)

(* Per-process round state, indexed by round ([r] at slot [r - 1]):
   rounds are communication-closed and the horizon is [rounds], so every
   buffer is allocated once per execution.  [got.(r-1)] is who has been
   heard from in round [r]; [msgs.(r-1)] holds their payloads, sized
   lazily from the first one (there is no dummy 'm) — slots outside
   [got] hold stale junk the view never exposes.  Own emissions are
   always rounds [1..emitted_count], kept for repair and lie detection;
   [emitted] is sized from the first one too.  A process emits round [r]
   as it starts collecting it, so [emitted_count = min current_round
   rounds]. *)
type ('s, 'm) proc = {
  mutable state : 's;
  mutable current_round : int; (* round currently being collected *)
  msgs : 'm array array;
  got : Pset.t array;
  mutable emitted : 'm array;
  mutable emitted_count : int;
  mutable done_ : bool;
}

let has_emitted proc round = round >= 1 && round <= proc.emitted_count

(* Idempotent per (sender, round): duplicates overwrite with the same
   payload, and tampered payloads keep only the latest delivery. *)
let store proc ~n ~round ~from msg =
  let r = round - 1 in
  if Array.length proc.msgs.(r) = 0 then proc.msgs.(r) <- Array.make n msg
  else proc.msgs.(r).(from) <- msg;
  proc.got.(r) <- Pset.add from proc.got.(r)

(* The payload-free driver: a process's state is its last completed
   round and each emission is that state, so one process's emissions
   differ exactly when their rounds do, as full-information views do. *)
let round_tags =
  {
    Rrfd.Algorithm.name = "round-tags";
    init = (fun ~n:_ _ -> 0);
    emit = (fun state ~round:_ -> state);
    deliver = (fun _ ~round ~view:_ -> round);
    decide = (fun _ -> None);
  }

(* Repair stops retransmitting at this virtual time. *)
let repair_horizon = 600.0

let run ?(seed = 0) ?(crashes = []) ?adversary ?retransmit_every ~n ~f ~rounds
    ~algorithm () =
  if f < 0 || f >= n then invalid_arg "Round_layer.run: need 0 ≤ f < n";
  if rounds < 1 then invalid_arg "Round_layer.run: need rounds ≥ 1";
  if List.length crashes > f then
    invalid_arg "Round_layer.run: more crashes than the resilience bound";
  let adversary = Option.value adversary ~default:Adversary.none in
  (* Repair (periodic retransmission + catch-up help) is on whenever an
     adversary is present — without it a lossy round can starve forever —
     and off otherwise, preserving the fault-free delay stream.  An
     explicit [retransmit_every] forces it on. *)
  let repair_every =
    match retransmit_every with
    | Some e -> Some e
    | None -> if Adversary.is_noop adversary then None else Some 10.0
  in
  let repair = Option.is_some repair_every in
  let open Rrfd.Algorithm in
  let sim = Dsim.Sim.create ~seed () in
  let heard_rec = Heard_of.create ~n in
  let procs =
    Array.init n (fun i ->
        {
          state = algorithm.init ~n i;
          current_round = 1;
          msgs = Array.make rounds [||];
          got = Array.make rounds Pset.empty;
          emitted = [||];
          emitted_count = 0;
          done_ = false;
        })
  in
  let network = ref None in
  let net () = Option.get !network in
  let byz = Adversary.byzantine adversary ~n in
  let behaviours = Array.init n (Adversary.byz_behaviour adversary) in
  (* Payload-agnostic Byzantine lying: a corrupt or equivocating sender
     replays its own round-[r−1] emission under a round-[r] tag — a
     well-typed payload of the algorithm's own message type, yet (for any
     algorithm whose emissions evolve) not the canonical round-[r]
     content.  Randomness comes from a dedicated stream so the delay
     schedule is bit-identical to the byz-free run with the same seed. *)
  let byz_rng = Dsim.Rng.derive ~seed ~stream:0xB42 in
  let tamper ~behaviour ~now:_ ~from ~to_:_ (round, msg, kind) =
    let { Adversary.equivocate; corrupt; forge = _ } = behaviour in
    let sender = procs.(from) in
    if not (has_emitted sender (round - 1)) then None
    else
      let stale = sender.emitted.(round - 2) in
      (* Equivocation is a per-receiver coin — broadcast calls the hook
         once per receiver, so some get the truth and some the lie. *)
      let lie = corrupt || (equivocate && Dsim.Rng.bool byz_rng) in
      if lie && stale <> msg then Some (round, stale, kind) else None
  in
  let tamper = if Pset.is_empty byz then None else Some tamper in
  let full = Pset.full n in
  let view = Rrfd.View.create ~n in
  let emit_round i round =
    let proc = procs.(i) in
    let msg = algorithm.emit proc.state ~round in
    if proc.emitted_count = 0 then proc.emitted <- Array.make rounds msg
    else proc.emitted.(round - 1) <- msg;
    proc.emitted_count <- round;
    (* Own emissions are delivered locally at emission time: a process
       always hears itself, so i ∉ D(i,r) by construction and the
       adversary cannot fabricate self-suspicion. *)
    store proc ~n ~round ~from:i msg;
    Network.broadcast (net ()) ~from:i ~self:false (round, msg, `Fresh);
    (* A forging sender also injects round-[r+1] messages it was never
       asked to send — its current payload under a future round tag. *)
    match behaviours.(i) with
    | Some { Adversary.forge = true; _ } when round < rounds ->
        Network.broadcast (net ()) ~from:i ~self:false (round + 1, msg, `Fresh)
    | _ -> ()
  in
  (* Complete as many consecutive rounds as the buffers allow. *)
  let rec try_complete i =
    let proc = procs.(i) in
    if not proc.done_ then begin
      let round = proc.current_round in
      let heard = proc.got.(round - 1) in
      if Pset.cardinal heard >= n - f then begin
        let msgs = proc.msgs.(round - 1) in
        let faulty = Pset.diff full heard in
        (* n - f ≥ 1 senders heard, so [msgs] is sized. *)
        Rrfd.View.set view ~msgs ~faulty;
        proc.state <- algorithm.deliver proc.state ~round ~view;
        (* "Lied to i": the final buffered content differs from the
           sender's canonical cached emission for this round (or the
           sender never canonically emitted it — a forged future-round
           message).  Honest transports only ever carry cached emissions
           (fresh, retry and help all resend [emitted]), so an honest
           sender can never land here: lied ⊆ byzantine is a theorem of
           the construction, which the E24 battery checks as
           lie-attribution soundness. *)
        let lied =
          if Pset.is_empty byz then Pset.empty
          else
            Pset.filter
              (fun j ->
                (not (has_emitted procs.(j) round))
                || msgs.(j) <> procs.(j).emitted.(round - 1))
              heard
        in
        Heard_of.note heard_rec i ~round ~lied ~heard ();
        proc.current_round <- round + 1;
        if round + 1 > rounds then proc.done_ <- true
        else begin
          emit_round i (round + 1);
          try_complete i
        end
      end
    end
  in
  let help i ~to_ ~round =
    let proc = procs.(i) in
    for r = round to proc.emitted_count do
      Network.send (net ()) ~from:i ~to_ (r, proc.emitted.(r - 1), `Help)
    done
  in
  let deliver _sim ~to_ ~from (round, msg, kind) =
    let proc = procs.(to_) in
    if round >= proc.current_round && not proc.done_ then begin
      store proc ~n ~round ~from msg;
      if round = proc.current_round then try_complete to_
    end
    else if repair && kind = `Retry then
      (* The sender is still collecting a round we have already passed:
         resend it (and everything since) our cached emissions. *)
      help to_ ~to_:from ~round
  in
  network :=
    Some
      (Network.create ~sim ~n ~adversary ?tamper ~deliver ());
  List.iter
    (fun (p, time) ->
      Dsim.Sim.schedule_at sim ~time (fun _ -> Network.crash (net ()) p))
    crashes;
  (match repair_every with
  | None -> ()
  | Some every ->
      if every <= 0.0 then invalid_arg "Round_layer.run: bad retransmit_every";
      (* One retransmission closure per process, built once: each tick
         reschedules its own. *)
      let ticks = Array.make n ignore in
      let tick i sim =
        let proc = procs.(i) in
        if (not proc.done_) && not (Pset.mem i (Network.crashed (net ())))
        then begin
          let r = proc.current_round in
          Network.broadcast (net ()) ~from:i ~self:false
            (r, proc.emitted.(r - 1), `Retry);
          if Dsim.Sim.now sim +. every <= repair_horizon then
            Dsim.Sim.schedule sim ~delay:every ticks.(i)
        end
      in
      for i = 0 to n - 1 do
        ticks.(i) <- tick i
      done;
      for i = 0 to n - 1 do
        Dsim.Sim.schedule sim ~delay:every ticks.(i)
      done);
  for i = 0 to n - 1 do
    emit_round i 1;
    try_complete i
  done;
  Dsim.Sim.run sim;
  let completed = Array.init n (Heard_of.completed heard_rec) in
  let decisions = Array.map (fun p -> algorithm.decide p.state) procs in
  let induced = Heard_of.to_history heard_rec in
  let counters =
    (* Physical work, not the abstract replay's: [messages] counts actual
       network deliveries (including retransmissions and catch-up help),
       and no detector is ever queried — the fault history is extracted
       from what the wire did. *)
    Rrfd.Counters.
      {
        rounds = Rrfd.Fault_history.rounds induced;
        messages = Network.messages_delivered (net ());
        detector_queries = 0;
        predicate_checks = 0;
      }
  in
  {
    decisions;
    induced;
    heard_of = heard_rec;
    completed;
    crashed = Network.crashed (net ());
    messages_sent = Network.messages_sent (net ());
    messages_delivered = Network.messages_delivered (net ());
    messages_dropped = Network.messages_dropped (net ());
    messages_duplicated = Network.messages_duplicated (net ());
    messages_tampered = Network.messages_tampered (net ());
    virtual_time = Dsim.Sim.now sim;
    counters;
  }

let execution result =
  {
    Rrfd.Substrate.substrate = "msgnet";
    decisions = result.decisions;
    decision_rounds =
      Array.mapi
        (fun i d -> Option.map (fun _ -> result.completed.(i)) d)
        result.decisions;
    rounds_used = Rrfd.Fault_history.rounds result.induced;
    induced = result.induced;
    counters = result.counters;
    violation = None;
    crashed = result.crashed;
    completed = result.completed;
    wall_ns = None;
  }
