module Pset = Rrfd.Pset

type wire = int * Rrfd.Quorum_vote.msg

type strategy = { votes : int array; cert : (int * Pset.t) option }

type proof =
  | Equivocation of { first : wire Network.signed; second : wire Network.signed }
  | Phantom_quorum of { cert : wire Network.signed; missing : Pset.t }

type accusation = { accused : Rrfd.Proc.t; proof : proof }

type outcome = {
  decisions : (int * Pset.t) option array;
  fork : (Rrfd.Proc.t * Rrfd.Proc.t) option;
  byzantine : Pset.t;
  accusations : accusation list;
  accused : Pset.t;
  log : wire Network.signed list;
  messages_tampered : int;
}

type verdict =
  | Accountable
  | Unsound of Pset.t
  | Incomplete of { accused : Pset.t; needed : int }

let pp_wire ppf ((round, body) : wire) =
  Format.fprintf ppf "r%d:%a" round Rrfd.Quorum_vote.pp_msg body

let pp_signed ppf (e : wire Network.signed) =
  Format.fprintf ppf "#%d p%d→p%d@%g %a" e.Network.seq e.Network.signer
    e.Network.receiver e.Network.sent_at pp_wire e.Network.payload

let pp_proof ppf = function
  | Equivocation { first; second } ->
      Format.fprintf ppf "equivocation: %a vs %a" pp_signed first pp_signed
        second
  | Phantom_quorum { cert; missing } ->
      Format.fprintf ppf "phantom quorum: %a cites %s without logged votes"
        pp_signed cert
        (Pset.to_string missing)

let pp_accusation ppf (a : accusation) =
  Format.fprintf ppf "p%d: %a" a.accused pp_proof a.proof

(* ------------------------------------------------------------------ *)
(* The audit: replay the signed log after the fact.                    *)
(* ------------------------------------------------------------------ *)

(* Generic scanner shared with the CT probe: two signed messages from
   one signer that agree on [key] but not on payload convict the signer
   of equivocation.  One conviction per (signer, key) — extra conflicts
   add no information.  [key] returning [None] exempts an entry (e.g.
   heartbeats, which repeat by design). *)
let conflicting_sends ~key log =
  let seen = Hashtbl.create 16 in
  let convicted = Hashtbl.create 8 in
  List.fold_left
    (fun acc (entry : _ Network.signed) ->
      match key entry with
      | None -> acc
      | Some k -> (
          let slot = (entry.Network.signer, k) in
          match Hashtbl.find_opt seen slot with
          | None ->
              Hashtbl.replace seen slot entry;
              acc
          | Some first ->
              if
                first.Network.payload <> entry.Network.payload
                && not (Hashtbl.mem convicted slot)
              then begin
                Hashtbl.replace convicted slot ();
                (entry.Network.signer, first, entry) :: acc
              end
              else acc))
    [] log
  |> List.rev

let audit ~n ~f ~log =
  let accusations = ref [] in
  let accuse a = accusations := a :: !accusations in
  (* Proof class 1 — equivocation: two conflicting signed messages for
     the same round.  An honest process sends one payload per round to
     every receiver (its canonical emission), so a conflict is
     unforgeable evidence against the signer. *)
  List.iter
    (fun (signer, first, second) ->
      accuse { accused = signer; proof = Equivocation { first; second } })
    (conflicting_sends ~key:(fun e -> Some (fst e.Network.payload)) log);
  (* Proof class 2 — a vote certificate without a justifying quorum: a
     round-2 cert citing [quorum] for value [v] is only honest if every
     cited member's signed round-1 vote for [v], addressed to the cert's
     signer, is in the log (votes are logged at send time, so even a
     dropped vote backs the cert of whoever received a copy that did get
     through — deciders only cite votes that arrived).  An undersized
     quorum is phantom evidence too. *)
  let cert_seen = Hashtbl.create 8 in
  List.iter
    (fun (entry : wire Network.signed) ->
      match entry.Network.payload with
      | 2, Rrfd.Quorum_vote.Cert { v; quorum } ->
          let dedup = (entry.Network.signer, v, Pset.to_string quorum) in
          if not (Hashtbl.mem cert_seen dedup) then begin
            Hashtbl.replace cert_seen dedup ();
            let missing =
              Pset.filter
                (fun q ->
                  not
                    (List.exists
                       (fun (e : wire Network.signed) ->
                         e.Network.signer = q
                         && e.Network.receiver = entry.Network.signer
                         && e.Network.payload = (1, Rrfd.Quorum_vote.Vote v))
                       log))
                quorum
            in
            if Pset.cardinal quorum < n - f || not (Pset.is_empty missing)
            then
              accuse
                {
                  accused = entry.Network.signer;
                  proof = Phantom_quorum { cert = entry; missing };
                }
          end
      | _ -> ())
    log;
  List.rev !accusations

let accused_set accusations =
  List.fold_left
    (fun acc (a : accusation) -> Pset.add a.accused acc)
    Pset.empty accusations

(* ------------------------------------------------------------------ *)
(* Strategies.                                                         *)
(* ------------------------------------------------------------------ *)

let rec pow base e = if e = 0 then 1 else base * pow base (e - 1)

let vote_strategy_count ~n ~values =
  if values <= 0 || n <= 0 then invalid_arg "Accountability: bad enumeration";
  pow values n

let vote_strategy_of_index ~n ~values index =
  if index < 0 || index >= vote_strategy_count ~n ~values then
    invalid_arg "Accountability.vote_strategy_of_index: index out of range";
  let votes = Array.make n 0 in
  let rest = ref index in
  for receiver = 0 to n - 1 do
    votes.(receiver) <- !rest mod values;
    rest := !rest / values
  done;
  { votes; cert = None }

let random_strategy rng ~n ~f ~inputs ?(forge_cert = false) () =
  if Array.length inputs <> n then
    invalid_arg "Accountability.random_strategy: inputs length";
  let value () = inputs.(Dsim.Rng.int rng n) in
  (* Fork-forcing bias: with probability 1/2 echo the receiver's own
     input back at it (the classic split vote), else pick uniformly —
     uniform strategies alone almost never line two quorums up. *)
  let votes =
    Array.init n (fun receiver ->
        if Dsim.Rng.bool rng then inputs.(receiver) else value ())
  in
  let cert =
    if forge_cert then
      let quorum =
        Dsim.Rng.shuffle rng (List.init n Fun.id)
        |> List.filteri (fun i _ -> i < n - f)
        |> Pset.of_list
      in
      Some (value (), quorum)
    else None
  in
  { votes; cert }

(* ------------------------------------------------------------------ *)
(* The execution: quorum-vote over the signed transport.               *)
(* ------------------------------------------------------------------ *)

let run ?(seed = 0) ?min_delay ?max_delay ~n ~f ~inputs ~strategies () =
  if f < 0 || f >= n then invalid_arg "Accountability.run: need 0 ≤ f < n";
  if Array.length inputs <> n then invalid_arg "Accountability.run: inputs";
  if Array.length strategies <> n then
    invalid_arg "Accountability.run: strategies";
  let byzantine =
    Pset.filter (fun i -> strategies.(i) <> None) (Pset.full n)
  in
  let forge = Array.exists (function Some { cert = Some _; _ } -> true | _ -> false) strategies in
  let adversary =
    if Pset.is_empty byzantine then Adversary.none
    else
      Adversary.make
        [
          Adversary.Byz
            {
              members = byzantine;
              behaviour = { equivocate = true; corrupt = true; forge };
            };
        ]
  in
  let sim = Dsim.Sim.create ~seed () in
  (* Per process: round-1 votes in arrival order (newest first), frozen
     once the decision attempt fires at exactly the [n − f]-th vote. *)
  let received = Array.make n [] in
  let decided : (int * Pset.t) option array = Array.make n None in
  let tamper ~behaviour:_ ~now:_ ~from ~to_ (round, body) =
    match strategies.(from) with
    | None -> None
    | Some st -> (
        match (round, body) with
        | 1, Rrfd.Quorum_vote.Vote canonical ->
            let v = st.votes.(to_) in
            if v = canonical then None else Some (1, Rrfd.Quorum_vote.Vote v)
        | 2, _ -> (
            match st.cert with
            | Some (v, quorum) -> Some (2, Rrfd.Quorum_vote.Cert { v; quorum })
            | None -> None)
        | _ -> None)
  in
  let deliver _sim ~to_ ~from (round, body) =
    match (round, body) with
    | 1, Rrfd.Quorum_vote.Vote v ->
        (* Decide on the first n − f distinct senders, iff unanimous —
           and only then.  Certs (round 2) are auditor evidence and
           never a decision path, which is what makes the ≥ f + 1
           intersection argument go through. *)
        if
          List.length received.(to_) < n - f
          && not (List.mem_assoc from received.(to_))
        then begin
          received.(to_) <- (from, v) :: received.(to_);
          if List.length received.(to_) = n - f then
            match received.(to_) with
            | [] -> ()
            | (_, v0) :: rest ->
                if List.for_all (fun (_, w) -> w = v0) rest then
                  decided.(to_) <-
                    Some (v0, Pset.of_list (List.map fst received.(to_)))
        end
    | _ -> ()
  in
  let network =
    Network.create ~sim ~n ?min_delay ?max_delay ~adversary ~tamper
      ~log_sends:true ~deliver ()
  in
  (* Round 1 at time zero: everyone votes its input; the transport lies
     per strategy.  Loopback bypasses the tamper hook — a process cannot
     equivocate to itself — so even a Byzantine decider's own recorded
     vote is its canonical input. *)
  for i = 0 to n - 1 do
    Network.broadcast network ~from:i ~self:true (1, Rrfd.Quorum_vote.Vote inputs.(i))
  done;
  (* Round 2 strictly after every round-1 delivery: deciders publish
     their certificates, everyone else an explicit Idle (so a forging
     strategy has a round-2 send to replace). *)
  let max_delay_v = match max_delay with Some d -> d | None -> 10.0 in
  Dsim.Sim.schedule_at sim ~time:(2.0 *. max_delay_v) (fun _ ->
      for i = 0 to n - 1 do
        let body =
          match decided.(i) with
          | Some (v, quorum) -> Rrfd.Quorum_vote.Cert { v; quorum }
          | None -> Rrfd.Quorum_vote.Idle
        in
        Network.broadcast network ~from:i ~self:false (2, body)
      done);
  Dsim.Sim.run sim;
  let fork =
    let honest_deciders =
      List.filter_map
        (fun i ->
          if Pset.mem i byzantine then None
          else Option.map (fun (v, _) -> (i, v)) decided.(i))
        (List.init n Fun.id)
    in
    let rec scan = function
      | (i, v) :: rest -> (
          match List.find_opt (fun (_, w) -> w <> v) rest with
          | Some (j, _) -> Some (i, j)
          | None -> scan rest)
      | [] -> None
    in
    scan honest_deciders
  in
  let log = Network.signed_log network in
  let accusations = audit ~n ~f ~log in
  {
    decisions = decided;
    fork;
    byzantine;
    accusations;
    accused = accused_set accusations;
    log;
    messages_tampered = Network.messages_tampered network;
  }

let check ~f outcome =
  let honest_accused = Pset.diff outcome.accused outcome.byzantine in
  if not (Pset.is_empty honest_accused) then Unsound honest_accused
  else
    match outcome.fork with
    | Some _ when Pset.cardinal outcome.accused < f + 1 ->
        Incomplete { accused = outcome.accused; needed = f + 1 }
    | _ -> Accountable
