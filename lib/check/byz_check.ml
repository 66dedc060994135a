module Acc = Msgnet.Accountability
module Codec = Report.Codec

type witness = {
  n : int;
  f : int;
  seed : int;
  inputs : int array;
  strategies : Acc.strategy option array;
}

let run_witness w =
  Acc.run ~seed:w.seed ~n:w.n ~f:w.f ~inputs:w.inputs ~strategies:w.strategies
    ()

let forks w = (run_witness w).Acc.fork <> None

(* ------------------------------------------------------------------ *)
(* Fuzzing: soundness under random lying plans.                        *)
(* ------------------------------------------------------------------ *)

type fuzz = {
  trials : int;
  forked : int;
  tampered : int;
  violations : int;
  first_violation : (int * witness * Acc.verdict) option;
}

let binary_inputs n = Array.init n (fun i -> i mod 2)

let derive_witness ~n ~f ~byz ~forge ~rng =
  let inputs = binary_inputs n in
  let strategies = Array.make n None in
  for i = 0 to byz - 1 do
    let forge_cert = forge && Dsim.Rng.bool rng in
    strategies.(i) <- Some (Acc.random_strategy rng ~n ~f ~inputs ~forge_cert ())
  done;
  { n; f; seed = Dsim.Rng.bits30 rng; inputs; strategies }

let fuzz ?jobs ?(n = 4) ?(f = 1) ?(byz = 2) ?(forge = false) ~seed ~trials () =
  let obs =
    Runtime.Campaign.run ?jobs ~seed ~trials (fun ~trial:_ ~rng ->
        let w = derive_witness ~n ~f ~byz ~forge ~rng in
        let outcome = run_witness w in
        let verdict = Acc.check ~f outcome in
        ( outcome.Acc.fork <> None,
          outcome.Acc.messages_tampered,
          (if verdict = Acc.Accountable then None else Some (w, verdict)) ))
  in
  let forked = ref 0 and tampered = ref 0 and violations = ref 0 in
  let first = ref None in
  Array.iteri
    (fun idx (fork, tamp, bad) ->
      if fork then incr forked;
      tampered := !tampered + tamp;
      match bad with
      | Some (w, v) ->
          incr violations;
          if !first = None then first := Some (idx, w, v)
      | None -> ())
    obs;
  {
    trials;
    forked = !forked;
    tampered = !tampered;
    violations = !violations;
    first_violation = !first;
  }

(* ------------------------------------------------------------------ *)
(* Exhaustive enumeration: completeness as a finite proof.             *)
(* ------------------------------------------------------------------ *)

type exhaustive = {
  combos : int;
  runs : int;
  forked : int;
  min_accused_on_fork : int option;
  violations : int;
  first_violation : (int * witness * Acc.verdict) option;
}

let exhaustive ?jobs ?(seeds = 3) ?(n = 4) ?(f = 1) ?(byz = 2) ~seed () =
  let values = 2 in
  let per_proc = Acc.vote_strategy_count ~n ~values in
  let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
  let combos = pow per_proc byz in
  let inputs = binary_inputs n in
  let witness_of ~combo ~variant =
    let strategies = Array.make n None in
    let rest = ref combo in
    for i = 0 to byz - 1 do
      strategies.(i) <-
        Some (Acc.vote_strategy_of_index ~n ~values (!rest mod per_proc));
      rest := !rest / per_proc
    done;
    (* Distinct schedules per (combo, variant): sharing schedules across
       combos would let a single unlucky delay race suppress every fork
       in the space at once. *)
    {
      n;
      f;
      seed = Dsim.Rng.derive_seed seed ((combo * seeds) + variant);
      inputs;
      strategies;
    }
  in
  let obs =
    Runtime.Campaign.run ?jobs ~seed ~trials:(combos * seeds)
      (fun ~trial ~rng:_ ->
        let w = witness_of ~combo:(trial / seeds) ~variant:(trial mod seeds) in
        let outcome = run_witness w in
        let verdict = Acc.check ~f outcome in
        ( (if outcome.Acc.fork <> None then
             Some (Rrfd.Pset.cardinal outcome.Acc.accused)
           else None),
          if verdict = Acc.Accountable then None else Some (w, verdict) ))
  in
  let forked = ref 0 and violations = ref 0 in
  let min_accused = ref None in
  let first = ref None in
  Array.iteri
    (fun idx (fork, bad) ->
      (match fork with
      | Some accused ->
          incr forked;
          min_accused :=
            Some
              (match !min_accused with
              | None -> accused
              | Some m -> min m accused)
      | None -> ());
      match bad with
      | Some (w, v) ->
          incr violations;
          if !first = None then first := Some (idx, w, v)
      | None -> ())
    obs;
  {
    combos;
    runs = combos * seeds;
    forked = !forked;
    min_accused_on_fork = !min_accused;
    violations = !violations;
    first_violation = !first;
  }

(* ------------------------------------------------------------------ *)
(* Replayable artifacts: the E24 counterpart of {!Artifact}.           *)
(* ------------------------------------------------------------------ *)

type artifact = {
  witness : witness;
  expected_fork : bool;
  expected_accused : Rrfd.Pset.t;
}

let kind = "e24-byz"
let version = 1

let of_outcome w (outcome : Acc.outcome) =
  {
    witness = w;
    expected_fork = outcome.Acc.fork <> None;
    expected_accused = outcome.Acc.accused;
  }

let pset = Codec.(map (list int) ~enc:Rrfd.Pset.to_list ~dec:Rrfd.Pset.of_list)

(* A fabricated certificate: both members present, or neither. *)
let cert =
  Codec.(
    record (fun value quorum ->
        match (value, quorum) with
        | None, _ -> None
        | Some v, Some q -> Some (v, q)
        | Some _, None -> fail "cert_value without cert_quorum")
    |> opt "cert_value" int (Option.map fst)
    |> opt "cert_quorum" pset (Option.map snd)
    |> obj)

let strategy =
  Codec.(
    record (fun votes cert -> { Acc.votes; cert })
    |> field "votes" (array int) (fun s -> s.Acc.votes)
    |> inline cert (fun s -> s.Acc.cert)
    |> obj)

(* A decimal string; hand-written witnesses may carry a plain number. *)
let lenient_decimal =
  {
    Codec.decimal with
    dec =
      (function
      | Report.Json.Number _ as j -> Codec.int.dec j | j -> Codec.decimal.dec j);
  }

let witness =
  Codec.(
    record (fun n f seed inputs strategies -> { n; f; seed; inputs; strategies })
    |> field "n" int (fun w -> w.n)
    |> field "f" int (fun w -> w.f)
    |> field "seed" lenient_decimal (fun w -> w.seed)
    |> field "inputs" (array int) (fun w -> w.inputs)
    |> field "strategies" (array (nullable strategy)) (fun w -> w.strategies)
    |> obj)

(* A witness must be one [Acc.run] accepts: [0 <= f < n], one input and
   one strategy per process, a vote for every receiver, and process sets
   within [0, n).  Anything else is refused here, at load, rather than
   raising halfway through a replay. *)
let consistent t =
  let { n; f; inputs; strategies; _ } = t.witness in
  if f < 0 || f >= n then Codec.fail "f = %d is outside [0, n) for n = %d" f n;
  let sized field len =
    if len <> n then Codec.fail "%s has %d entries, expected n = %d" field len n
  in
  let within field s =
    if not (Rrfd.Pset.subset s (Rrfd.Pset.full n)) then
      Codec.fail "%s names a process outside 0..%d" field (n - 1)
  in
  sized "inputs" (Array.length inputs);
  sized "strategies" (Array.length strategies);
  Array.iter
    (Option.iter (fun { Acc.votes; cert } ->
         sized "votes" (Array.length votes);
         Option.iter (fun (_, quorum) -> within "cert_quorum" quorum) cert))
    strategies;
  within "expected_accused" t.expected_accused;
  t

let codec =
  Codec.(
    record (fun witness expected_fork expected_accused ->
        { witness; expected_fork; expected_accused })
    |> header ~kind ~version
    |> inline witness (fun t -> t.witness)
    |> field "expected_fork" bool (fun t -> t.expected_fork)
    |> field "expected_accused" pset (fun t -> t.expected_accused)
    |> obj
    |> map ~enc:Fun.id ~dec:consistent)

type replay = {
  outcome : Acc.outcome;
  verdict : Acc.verdict;
  fork_match : bool;
  accused_match : bool;
}

let replay t =
  let outcome = run_witness t.witness in
  {
    outcome;
    verdict = Acc.check ~f:t.witness.f outcome;
    fork_match = (outcome.Acc.fork <> None) = t.expected_fork;
    accused_match = Rrfd.Pset.equal outcome.Acc.accused t.expected_accused;
  }

let reproduced r = r.fork_match && r.accused_match
