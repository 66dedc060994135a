module Pset = Rrfd.Pset

type message =
  | Heartbeat
  | Estimate of { phase : int; est : int; ts : int }
  | New_estimate of { phase : int; est : int }
  | Ack of { phase : int }
  | Nack of { phase : int }
  | Decide of { value : int }

(* Quorum bookkeeping is keyed by sender, never counted: an adversary
   that duplicates messages must not be able to inflate a majority.  The
   original count-based version let two copies of one Ack look like two
   acknowledgers — an agreement violation waiting to happen. *)
type coordinator_state = {
  mutable estimates : (int * (int * int)) list;
      (* sender -> (est, ts) received this phase *)
  mutable proposed : bool;
  mutable acks : Pset.t;
  mutable nacks : Pset.t;
  mutable announced : bool;
  mutable proposal : int;
}

(* [List.mem_assoc] with a monomorphic test: polymorphic compare on the
   message path costs more than the search itself. *)
let rec has_estimate from = function
  | [] -> false
  | (p, _) :: rest -> Int.equal p from || has_estimate from rest

type process = {
  mutable est : int;
  mutable ts : int;
  mutable phase : int;
  mutable waiting : bool; (* sent estimate, awaiting coordinator or suspicion *)
  mutable phase_entered : float;
  mutable patience : float; (* stuck-phase timeout; doubles on each use *)
  mutable decided : int option;
  mutable decided_at : float option;
  coordinating : (int, coordinator_state) Hashtbl.t; (* phase -> state *)
}

type result = {
  decisions : int option array;
  decision_times : float option array;
  phases_used : int;
  false_suspicions : int;
  messages_sent : int;
  messages_delivered : int;
  messages_dropped : int;
  messages_duplicated : int;
  messages_lost_to_crash : int;
  messages_tampered : int;
  accused : Pset.t;
  virtual_time : float;
}

(* Post-hoc equivocation audit of the signed log.  Keys are the message
   classes an honest process provably sends at most one payload for:
   its phase-[p] estimate (est/ts frozen while waiting in [p], so
   retransmissions are byte-identical) and its phase-[p] proposal
   (fixed at [proposed <- true], repeated verbatim to stragglers).
   Heartbeats repeat by design; Ack/Nack carry no value; and Decide is
   deliberately exempt — an honest process relays whatever Decide value
   reached it first, so under Byzantine tampering two honest Decide
   payloads can genuinely differ without the sender having lied. *)
let equivocation_key (e : message Network.signed) =
  match e.Network.payload with
  | Estimate { phase; _ } -> Some (0, phase)
  | New_estimate { phase; _ } -> Some (1, phase)
  | Heartbeat | Ack _ | Nack _ | Decide _ -> None

(* Processes stop starting phases after this one. *)
let max_phases = 64

let run ?(seed = 0) ?(crashes = []) ?adversary ?hb_interval ?hb_initial_timeout
    ?(horizon = 1000.0) ~n ~f ~inputs () =
  if 2 * f >= n then invalid_arg "Ct_consensus.run: need 2f < n";
  if List.length crashes > f then
    invalid_arg "Ct_consensus.run: more crashes than f";
  if Array.length inputs <> n then
    invalid_arg "Ct_consensus.run: inputs length mismatch";
  let sim = Dsim.Sim.create ~seed () in
  let adversary = Option.value adversary ~default:Adversary.none in
  let byz = Pset.inter (Adversary.byzantine adversary ~n) (Pset.full n) in
  (* Value-level lies for Byzantine members: nudge the estimate (with a
     timestamp bump so it wins the coordinator's max-ts pick), the
     proposal, or the announced decision.  [corrupt] lies on every copy,
     [equivocate] flips a per-receiver coin from a dedicated stream —
     the delay schedule never changes.  Unlike {!Accountability}'s
     quorum-vote protocol, CT trusts Decide on receipt, so a single
     corrupted Decide forks it: the E24 grid measures that violation
     rate and checks the audit stays sound, not complete. *)
  let byz_rng = Dsim.Rng.derive ~seed ~stream:0xB42 in
  let tamper ~behaviour ~now:_ ~from:_ ~to_:_ msg =
    let { Adversary.equivocate; corrupt; forge = _ } = behaviour in
    let lie = corrupt || (equivocate && Dsim.Rng.bool byz_rng) in
    if not lie then None
    else
      match msg with
      | Estimate { phase; est; ts } ->
          Some (Estimate { phase; est = est + 1; ts = ts + 1 })
      | New_estimate { phase; est } -> Some (New_estimate { phase; est = est + 1 })
      | Decide { value } -> Some (Decide { value = value + 1 })
      | Heartbeat | Ack _ | Nack _ -> None
  in
  let tamper = if Pset.is_empty byz then None else Some tamper in
  let log_sends = not (Pset.is_empty byz) in
  let procs =
    Array.init n (fun i ->
        {
          est = inputs.(i);
          ts = 0;
          phase = 0;
          waiting = false;
          phase_entered = 0.0;
          patience = 45.0;
          decided = None;
          decided_at = None;
          coordinating = Hashtbl.create 4;
        })
  in
  let network = ref None in
  let detector = ref None in
  let net () = Option.get !network in
  let fd () = Option.get !detector in
  let majority = (n / 2) + 1 in
  let coordinator_of phase = phase mod n in
  let coord_state p phase =
    let proc = procs.(p) in
    match Hashtbl.find_opt proc.coordinating phase with
    | Some s -> s
    | None ->
      let s =
        {
          estimates = [];
          proposed = false;
          acks = Pset.empty;
          nacks = Pset.empty;
          announced = false;
          proposal = 0;
        }
      in
      Hashtbl.replace proc.coordinating phase s;
      s
  in
  let send ~from ~to_ msg = Network.send (net ()) ~from ~to_ msg in
  let broadcast ~from msg = Network.broadcast (net ()) ~from msg in
  let send_estimate i =
    let proc = procs.(i) in
    send ~from:i ~to_:(coordinator_of proc.phase)
      (Estimate { phase = proc.phase; est = proc.est; ts = proc.ts })
  in
  let rec enter_phase i phase =
    let proc = procs.(i) in
    if Option.is_none proc.decided && phase <= max_phases then begin
      proc.phase <- phase;
      proc.waiting <- true;
      proc.phase_entered <- Dsim.Sim.now sim;
      send_estimate i
    end
  and try_propose c phase =
    let s = coord_state c phase in
    if (not s.proposed) && List.length s.estimates >= majority then begin
      let est, _ =
        List.fold_left
          (fun (be, bt) (_, (e, t)) -> if t > bt then (e, t) else (be, bt))
          (snd (List.hd s.estimates))
          (List.tl s.estimates)
      in
      s.proposed <- true;
      s.proposal <- est;
      broadcast ~from:c (New_estimate { phase; est })
    end
  and handle _sim ~to_ ~from msg =
    let proc = procs.(to_) in
    match msg with
    | Heartbeat -> Heartbeat.beat (fd ()) ~at:to_ ~from
    | Estimate { phase; est; ts } -> (
      match proc.decided with
      | Some value ->
        (* A retransmitting straggler reaches a decided coordinator: hand
           it the decision so lost Decide broadcasts cannot strand it. *)
        send ~from:to_ ~to_:from (Decide { value })
      | None ->
        let s = coord_state to_ phase in
        if not (has_estimate from s.estimates) then
          s.estimates <- (from, (est, ts)) :: s.estimates;
        if s.proposed then
          (* Late or retransmitted estimate after the proposal went out:
             the sender may have missed it, so repeat it point-to-point. *)
          send ~from:to_ ~to_:from (New_estimate { phase; est = s.proposal })
        else try_propose to_ phase)
    | New_estimate { phase; est } ->
      if Option.is_none proc.decided && proc.phase = phase && proc.waiting then begin
        proc.est <- est;
        (* Timestamps must strictly dominate the initial ts 0 or the lock
           is invisible: phases count from 0, so [ts <- phase] would let a
           value adopted (and possibly decided) in phase 0 tie with
           never-adopted inputs when the phase-1 coordinator picks its
           max-ts estimate — an agreement violation under message loss. *)
        proc.ts <- phase + 1;
        proc.waiting <- false;
        send ~from:to_ ~to_:from (Ack { phase });
        enter_phase to_ (phase + 1)
      end
      else if Option.is_none proc.decided && proc.phase > phase then
        (* Already moved on: a late proposal must be nacked so the
           coordinator can account for this process. *)
        send ~from:to_ ~to_:from (Nack { phase })
    | Ack { phase } ->
      let s = coord_state to_ phase in
      s.acks <- Pset.add from s.acks;
      if s.proposed && (not s.announced) && Pset.cardinal s.acks >= majority
      then begin
        s.announced <- true;
        broadcast ~from:to_ (Decide { value = s.proposal })
      end
    | Nack { phase } ->
      let s = coord_state to_ phase in
      s.nacks <- Pset.add from s.nacks
    | Decide { value } ->
      if Option.is_none proc.decided then begin
        proc.decided <- Some value;
        proc.decided_at <- Some (Dsim.Sim.now sim);
        (* Reliable broadcast: relay once so every correct process decides
           even if the original sender crashes mid-broadcast. *)
        broadcast ~from:to_ (Decide { value })
      end
  in
  network :=
    Some
      (Network.create ~sim ~n ~adversary ?tamper
         ~log_sends ~deliver:handle ());
  detector :=
    Some
      (Heartbeat.create ~sim ~n
         ~send_heartbeat:(fun ~from -> Network.broadcast (net ()) ~from ~self:false Heartbeat)
         ?interval:hb_interval ?initial_timeout:hb_initial_timeout ~horizon ());
  List.iter
    (fun (p, time) ->
      Dsim.Sim.schedule_at sim ~time (fun _ -> Network.crash (net ()) p))
    crashes;
  (* Suspicion polling: a waiting process that suspects its coordinator
     nacks and moves to the next phase; one that does not yet suspect it
     retransmits its estimate, so a message-dropping adversary can delay a
     phase but not wedge it.  Polls stop at the same horizon as the
     heartbeats, so the simulation always drains even when a process
     (e.g. a crashed one) never decides. *)
  let poll_interval = 3.0 in
  let rec poll i sim_ =
    let proc = procs.(i) in
    if Option.is_none proc.decided && proc.phase <= max_phases then begin
      if proc.waiting then begin
        let c = coordinator_of proc.phase in
        let suspected =
          (not (Rrfd.Proc.equal c i))
          && Heartbeat.suspects (fd ()) ~observer:i ~target:c
        in
        (* A phase can wedge without suspicion — e.g. a process ends up
           coordinating a phase nobody else enters, so its estimate
           reaches no one who could answer.  Exponential patience breaks
           the wedge: CT's safety never depends on when a process nacks,
           and once a phase's coordinator has decided (or communication
           stabilises) the retransmitted estimate gets an answer. *)
        let out_of_patience =
          Dsim.Sim.now sim_ -. proc.phase_entered > proc.patience
        in
        if suspected || out_of_patience then begin
          if out_of_patience then proc.patience <- proc.patience *. 2.0;
          proc.waiting <- false;
          send ~from:i ~to_:c (Nack { phase = proc.phase });
          enter_phase i (proc.phase + 1)
        end
        else send_estimate i
      end;
      if Dsim.Sim.now sim_ +. poll_interval <= horizon then
        Dsim.Sim.schedule sim_ ~delay:poll_interval (poll i)
    end
  in
  for i = 0 to n - 1 do
    enter_phase i 0;
    Dsim.Sim.schedule sim ~delay:poll_interval (poll i)
  done;
  Dsim.Sim.run sim;
  let accused =
    Accountability.conflicting_sends ~key:equivocation_key
      (Network.signed_log (net ()))
    |> List.fold_left (fun acc (signer, _, _) -> Pset.add signer acc) Pset.empty
  in
  {
    decisions = Array.map (fun p -> p.decided) procs;
    decision_times = Array.map (fun p -> p.decided_at) procs;
    phases_used = Array.fold_left (fun acc p -> max acc p.phase) 0 procs;
    false_suspicions = Heartbeat.false_suspicions (fd ());
    messages_sent = Network.messages_sent (net ());
    messages_delivered = Network.messages_delivered (net ());
    messages_dropped = Network.messages_dropped (net ());
    messages_duplicated = Network.messages_duplicated (net ());
    messages_lost_to_crash = Network.messages_lost_to_crash (net ());
    messages_tampered = Network.messages_tampered (net ());
    accused;
    virtual_time = Dsim.Sim.now sim;
  }
