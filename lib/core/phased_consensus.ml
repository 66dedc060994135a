module Ac = Adopt_commit

(* Round r (1-based) belongs to phase (r-1)/3; within a phase the slots are
   1 = candidate, 2 = adopt-commit values, 3 = adopt-commit votes. *)
let slot ~round = ((round - 1) mod 3) + 1

let is_candidate_round round = slot ~round = 1

let predicate ~f ~stabilize_at =
  Predicate.make
    ~name:(Printf.sprintf "phased(f=%d,GST=%d)" f stabilize_at)
    ~doc:
      "candidate rounds: |D| ≤ f, identical after stabilisation; \
       adopt-commit rounds: snapshot clauses"
    (fun h ->
      let violation = ref None in
      let note fmt =
        Printf.ksprintf
          (fun s -> if !violation = None then violation := Some s)
          fmt
      in
      for round = 1 to Fault_history.rounds h do
        let sets = Fault_history.round_sets h ~round in
        if is_candidate_round round then begin
          Array.iteri
            (fun i d ->
              if Pset.cardinal d > f then
                note "candidate round %d: |D(%d)| > %d" round i f)
            sets;
          if round >= stabilize_at then
            Array.iteri
              (fun i d ->
                if not (Pset.equal d sets.(0)) then
                  note "stabilised candidate round %d: D(%d) ≠ D(0)" round i)
              sets
        end
        else begin
          (* snapshot clauses: size bound, self-exclusion, comparability *)
          Array.iteri
            (fun i d ->
              if Pset.cardinal d > f then
                note "AC round %d: |D(%d)| > %d" round i f;
              if Pset.mem i d then note "AC round %d: p%d suspects itself" round i)
            sets;
          Array.iteri
            (fun i di ->
              Array.iteri
                (fun j dj ->
                  if
                    i < j
                    && not (Pset.subset di dj || Pset.subset dj di)
                  then note "AC round %d: D(%d), D(%d) incomparable" round i j)
                sets)
            sets
        end
      done;
      !violation)

let detector rng ~n ~f ~stabilize_at =
  let iis = Detector_gen.iis rng ~n ~f in
  Detector.make
    ~name:(Printf.sprintf "gen-phased(f=%d,GST=%d)" f stabilize_at)
    (fun h ->
      let round = Fault_history.rounds h + 1 in
      if is_candidate_round round then
        if round >= stabilize_at then begin
          (* identical proper subsets of size ≤ f *)
          let size = Dsim.Rng.int_in_range rng ~min:0 ~max:(min f (n - 1)) in
          let d = Pset.random_subset_of_size rng (Pset.full n) size in
          Array.make n d
        end
        else
          (* divergent: each process misses its own bounded subset — the
             Theorem-3.1 choice then disagrees maximally *)
          Array.init n (fun _ ->
              let size = Dsim.Rng.int_in_range rng ~min:0 ~max:(min f (n - 1)) in
              Pset.random_subset_of_size rng (Pset.full n) size)
      else Detector.next iis h)

type message =
  | Estimate of int
  | Value of int (* adopt-commit round 1: the candidate being agreed on *)
  | Vote of int Ac.vote

type state = {
  me : Proc.t;
  n : int;
  estimate : int;
  candidate : int option;
  vote : int Ac.vote option;
  decision : int option;
}

let value_of = function Value v | Estimate v -> v | Vote _ -> assert false

(* A vote round's non-vote message counts as an adopt vote. *)
let vote_of = function Vote v -> v | Value v | Estimate v -> Ac.Adopt_vote v

let algorithm ~inputs =
  {
    Algorithm.name = "phased-consensus";
    init =
      (fun ~n p ->
        if Array.length inputs <> n then
          invalid_arg "Phased_consensus.algorithm: inputs length mismatch";
        {
          me = p;
          n;
          estimate = inputs.(p);
          candidate = None;
          vote = None;
          decision = None;
        });
    emit =
      (fun s ~round ->
        match slot ~round with
        | 1 -> Estimate s.estimate
        | 2 -> Value (Option.value s.candidate ~default:s.estimate)
        | _ -> (
          match s.vote with
          | Some vote -> Vote vote
          | None -> Value s.estimate));
    deliver =
      (fun s ~round ~view ->
        match slot ~round with
        | 1 ->
          (* Theorem 3.1 choice: the estimate of the lowest-id unsuspected
             process. *)
          let j = Pset.lowest (View.heard view) in
          let candidate =
            if j < 0 then s.estimate
            else
              match View.get view j with
              | Estimate v -> v
              | Value _ | Vote _ -> assert false
          in
          { s with candidate = Some candidate }
        | 2 ->
          let own = Option.value s.candidate ~default:s.estimate in
          let vote = Ac.propose ~equal:Int.equal ~me:s.me ~own view value_of in
          { s with vote = Some vote }
        | _ ->
          let own = Option.value s.candidate ~default:s.estimate in
          let own_vote =
            match s.vote with Some v -> v | None -> Ac.Adopt_vote own
          in
          let outcome =
            Ac.resolve ~equal:Int.equal ~me:s.me ~own ~own_vote view vote_of
          in
          let estimate = Ac.value_of outcome in
          let decision =
            if Option.is_some s.decision then s.decision
            else if Ac.is_commit outcome then Some estimate
            else None
          in
          { s with estimate; candidate = None; vote = None; decision });
    decide = (fun s -> s.decision);
  }

let rounds_needed ~stabilize_at =
  (* the first phase whose candidate round is ≥ stabilize_at, completed *)
  let phase = (max 0 (stabilize_at - 1) + 2) / 3 in
  3 * (phase + 1)
