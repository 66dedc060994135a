(* Derivation of heard-of predicates from adversary policies (E26).

   The strongest expressible predicate is the conjunction of every
   candidate no observed execution violates — strongest by construction,
   independent of any small-n ordering subtleties.  The Submodel lattice
   (built once per vocabulary at n' = min n 3) is only used to *present*
   the answer: drop conjuncts implied by the rest, and reduce the
   refuted set to its weakest members (the frontier).  A refuted
   candidate strictly stronger than the derivation can never be sound —
   if it were, it would be a conjunct of the meet — so witnessing every
   refuted candidate certifies tightness over the whole vocabulary. *)

module Codec = Report.Codec

type config = {
  n : int;
  f : int;
  rounds : int;
  observe_trials : int;
  certify_trials : int;
  exhaustive : bool;
  seed : int;
  jobs : int option;
}

let default_config =
  {
    n = 5;
    f = 2;
    rounds = 4;
    observe_trials = 2000;
    certify_trials = 10_000;
    exhaustive = false;
    seed = 26;
    jobs = None;
  }

(* Distinct RNG streams per campaign phase, all derived from the one
   user-facing seed (the artifact stores only that seed; replay
   recomputes the streams). *)
let observe_seed cfg = Dsim.Rng.derive_seed cfg.seed 1

let certify_seed cfg = Dsim.Rng.derive_seed cfg.seed 2

let dedupe specs =
  List.rev
    (List.fold_left
       (fun acc s -> if List.mem s acc then acc else s :: acc)
       [] specs)

let candidates ~n ~f =
  dedupe
    ([
       "true";
       "no-self";
       "not-all-faulty";
       "crash-closure";
       "someone-seen";
       "antisym";
       "detector-s";
       "eq5";
       "kset:k=1";
       "kset:k=2";
     ]
    @ List.init (f + 1) (fun f' -> Printf.sprintf "async:f=%d" f')
    @ [
        Printf.sprintf "omission:f=%d" f;
        Printf.sprintf "omission:f=%d" (n - 1);
        Printf.sprintf "crash:f=%d" f;
        Printf.sprintf "shm:f=%d" f;
        Printf.sprintf "shm-alt:f=%d" f;
        Printf.sprintf "snapshot:f=%d" f;
        Printf.sprintf "async-mixed:f=%d,t=%d" (max 0 (f - 1)) (max 1 f);
      ])

type source = Fuzz of int | Exhaustive

type witness = {
  spec : string;
  source : source;
  history : Rrfd.Fault_history.t;
  reason : string;
}

type outcome = {
  policy : string;
  cfg : config;
  cands : string list;
  sound : string list;
  conjuncts : string list;
  frontier : string list;
  witnesses : witness list;
  separations : witness list;
  certified : bool;
  certify_violation : (int * Rrfd.Fault_history.t) option;
  counters : Rrfd.Counters.t array;
}

(* Heard-of ignores what is said, so the payload-free round-tag driver
   induces the same history, counts and lies as full information. *)
let induced_history ~adversary ~n ~f ~rounds ~rng =
  let seed = Dsim.Rng.bits30 rng in
  let r =
    Msgnet.Round_layer.run ~seed ~adversary ~n ~f ~rounds
      ~algorithm:Msgnet.Round_layer.round_tags ()
  in
  (r.Msgnet.Round_layer.induced, r.Msgnet.Round_layer.counters)

let ( let* ) = Result.bind

let predicates_of specs =
  List.fold_left
    (fun acc spec ->
      let* acc = acc in
      let* p = Spec.predicate spec in
      Ok ((spec, p) :: acc))
    (Ok []) specs
  |> Result.map List.rev

let conj_of named =
  match named with
  | [] -> Rrfd.Predicate.always
  | (_, first) :: rest ->
    List.fold_left (fun acc (_, p) -> Rrfd.Predicate.conj acc p) first rest

let predicate_of o =
  match predicates_of o.sound with
  | Ok named ->
    let p = conj_of named in
    Rrfd.Predicate.make
      ~name:(String.concat " ∧ " o.conjuncts)
      ~doc:("derived from policy " ^ o.policy)
      ~holds:(Rrfd.Predicate.holds p) (Rrfd.Predicate.explain p)
  | Error e -> invalid_arg ("Derive.predicate_of: " ^ e)

(* Enumeration-backed separation: the first history of the whole
   depth-1-then-depth-2 derived space violating [q].  Deterministic, so
   replay can re-run it and demand the identical history. *)
let find_separation ~n ~rounds ~derived ~q =
  let violates h = not (Rrfd.Predicate.holds q h) in
  let rec try_depth r =
    if r > min rounds 2 then None
    else
      match
        Adversary.Enumerate.find ~n ~rounds:r ~satisfying:derived ~f:violates
      with
      | Some h -> Some h
      | None -> try_depth (r + 1)
  in
  try_depth 1

(* Lattice dimensions: big enough that the parameterised candidates do
   not collapse (|D| ≤ f must not be vacuous, so n' > f + 1 where the
   space allows), small enough to enumerate.  The lattice evaluates one
   history per renaming orbit: at n' = 3 two rounds fit (19,916 orbits of
   117,993 histories); at n' = 4 only one does (2,341 orbits of 50,626;
   the two-round space is ≈ 2.6·10^9 histories, still ≈ 10^8 orbits). *)
let lattice_dims cfg =
  let n' = max 3 (min cfg.n (min 4 (cfg.f + 2))) in
  (n', if n' <= 3 then min cfg.rounds 2 else 1)

(* One lattice serves every derivation over the same vocabulary; the
   grid and the tests build it here once instead of per policy. *)
let lattice_for ~cfg =
  let* named = predicates_of (candidates ~n:cfg.n ~f:cfg.f) in
  let n, rounds = lattice_dims cfg in
  Ok (Rrfd.Submodel.lattice ~n ~rounds named)

let derive ?lattice ~cfg ~policy () =
  let* adversary = Spec.adversary policy in
  let cands = candidates ~n:cfg.n ~f:cfg.f in
  let* named = predicates_of cands in
  if cfg.rounds < 1 then
    Error (Printf.sprintf "derive needs rounds >= 1; got rounds=%d" cfg.rounds)
  else if cfg.f < 0 || cfg.f >= cfg.n then
    Error (Printf.sprintf "derive needs 0 <= f < n; got n=%d f=%d" cfg.n cfg.f)
  else if cfg.exhaustive && cfg.n > 4 then
    Error
      (Printf.sprintf
         "exhaustive tightness needs n <= 4 (the space is ((2^n-1)^n)^rounds); \
          got n=%d" cfg.n)
  else begin
    let lat =
      match lattice with
      | Some l -> l
      | None ->
        let n', rounds' = lattice_dims cfg in
        Rrfd.Submodel.lattice ~n:n' ~rounds:rounds' named
    in
    let obs =
      Runtime.Campaign.run ?jobs:cfg.jobs ~seed:(observe_seed cfg)
        ~trials:cfg.observe_trials (fun ~trial:_ ~rng ->
          induced_history ~adversary ~n:cfg.n ~f:cfg.f ~rounds:cfg.rounds ~rng)
    in
    (* Each candidate is judged in trial order up to its first violation,
       in this domain, so the witness is its lowest violating trial at
       every [-j].  The history is an observed execution, so it satisfies
       every sound candidate — hence the derived predicate — by
       construction. *)
    let judged =
      List.map
        (fun (spec, p) ->
          let rec first t =
            if t = Array.length obs then None
            else
              let history = fst obs.(t) in
              if Rrfd.Predicate.holds p history then first (t + 1)
              else
                match Rrfd.Predicate.explain p history with
                | Some reason -> Some { spec; source = Fuzz t; history; reason }
                | None ->
                  invalid_arg "Derive.derive: verdict and explanation disagree"
          in
          ((spec, p), first 0))
        named
    in
    let sound_named =
      List.filter_map (function c, None -> Some c | _, Some _ -> None) judged
    in
    let sound = List.map fst sound_named in
    let witnesses = List.filter_map snd judged in
    let refuted = List.map (fun w -> w.spec) witnesses in
    let conjuncts = Rrfd.Submodel.minimal_conjuncts lat sound in
    (* A refuted candidate whose lattice history set equals [true]'s is
       degenerate at the lattice size (e.g. crash-closure in a one-round
       space): its real strength is invisible there, so it must neither
       dominate the frontier nor be dominated out of it — list it
       alongside the ordered frontier instead. *)
    let degenerate, orderable =
      List.partition
        (fun s -> s <> "true" && Rrfd.Submodel.equivalent lat s "true")
        refuted
    in
    let frontier = Rrfd.Submodel.weakest lat orderable @ degenerate in
    let derived = conj_of sound_named in
    (* Upward certificate: a fresh sharded campaign must find nothing. *)
    let certify_violation =
      Runtime.Campaign.search ?jobs:cfg.jobs ~seed:(certify_seed cfg)
        ~trials:cfg.certify_trials (fun ~trial ~rng ->
          let h, _ =
            induced_history ~adversary ~n:cfg.n ~f:cfg.f ~rounds:cfg.rounds
              ~rng
          in
          if Rrfd.Predicate.holds derived h then None else Some (trial, h))
    in
    (* Downward proof at small n: enumerate the whole derived space for a
       history escaping each frontier member. *)
    let separations =
      if not cfg.exhaustive then []
      else
        List.filter_map
          (fun spec ->
            let q = List.assoc spec named in
            match
              find_separation ~n:cfg.n ~rounds:cfg.rounds ~derived ~q
            with
            | None -> None
            | Some history ->
              let reason =
                match Rrfd.Predicate.explain q history with
                | Some r -> r
                | None -> "separation no longer violates the candidate"
              in
              Some { spec; source = Exhaustive; history; reason })
          frontier
    in
    Ok
      {
        policy;
        cfg;
        cands;
        sound;
        conjuncts;
        frontier;
        witnesses;
        separations;
        certified = certify_violation = None;
        certify_violation;
        counters = Array.map snd obs;
      }
  end

let tight o =
  let witnessed spec = List.exists (fun w -> w.spec = spec) o.witnesses in
  let separated spec = List.exists (fun w -> w.spec = spec) o.separations in
  List.for_all witnessed
    (List.filter (fun s -> not (List.mem s o.sound)) o.cands)
  && ((not o.cfg.exhaustive) || List.for_all separated o.frontier)

let ok o = o.certified && tight o

let pp ppf o =
  let open Format in
  fprintf ppf "@[<v>policy %s (n=%d f=%d rounds=%d seed=%d):@," o.policy
    o.cfg.n o.cfg.f o.cfg.rounds o.cfg.seed;
  fprintf ppf "  candidates searched: %d@," (List.length o.cands);
  fprintf ppf "  derived: %s@," (String.concat " ∧ " o.conjuncts);
  fprintf ppf "  sound (%d): %s@," (List.length o.sound)
    (String.concat ", " o.sound);
  fprintf ppf "  frontier (%d refuted, %d weakest): %s@,"
    (List.length o.witnesses) (List.length o.frontier)
    (String.concat ", " o.frontier);
  List.iter
    (fun w ->
      let tag =
        match w.source with
        | Fuzz t -> Printf.sprintf "fuzz trial %d" t
        | Exhaustive -> "exhaustive"
      in
      fprintf ppf "    %s refuted (%s): %s@," w.spec tag w.reason)
    o.witnesses;
  List.iter
    (fun w ->
      fprintf ppf "    %s separated by enumeration: %s  [%s]@," w.spec
        w.reason
        (Rrfd.Fault_history.to_string_compact w.history))
    o.separations;
  (match o.certify_violation with
  | None ->
    fprintf ppf "  certified: %d fresh executions, zero violations@,"
      o.cfg.certify_trials
  | Some (t, h) ->
    fprintf ppf "  NOT CERTIFIED: certification trial %d violates it: %s@," t
      (Rrfd.Fault_history.to_string_compact h));
  fprintf ppf "  tight: %s@]" (if tight o then "yes" else "NO")

(* ------------------------------------------------------------------ *)
(* Replayable artifacts (schema e26-derive/1).                         *)
(* ------------------------------------------------------------------ *)

let kind = "e26-derive"

let version = 1

(* A witness's provenance, flat in the witness object: ["source"], plus
   the ["trial"] a fuzz witness came from. *)
let source =
  Codec.(
    record (fun tag trial ->
        match (tag, trial) with
        | "fuzz", Some t -> Fuzz t
        | "fuzz", None -> fail "fuzz witness without a trial"
        | "exhaustive", _ -> Exhaustive
        | s, _ -> fail "unknown witness source %s" s)
    |> field "source" string (function Fuzz _ -> "fuzz" | Exhaustive -> "exhaustive")
    |> opt "trial" int (function Fuzz t -> Some t | Exhaustive -> None)
    |> obj)

let witness =
  Codec.(
    record (fun spec source history reason -> { spec; source; history; reason })
    |> field "spec" string (fun w -> w.spec)
    |> inline source (fun w -> w.source)
    |> field "history" history (fun w -> w.history)
    |> field "reason" string (fun w -> w.reason)
    |> obj)

let config =
  Codec.(
    record (fun n f rounds observe_trials certify_trials exhaustive seed ->
        { n; f; rounds; observe_trials; certify_trials; exhaustive; seed;
          jobs = None })
    |> field "n" int (fun c -> c.n)
    |> field "f" int (fun c -> c.f)
    |> field "rounds" int (fun c -> c.rounds)
    |> field "observe_trials" int (fun c -> c.observe_trials)
    |> field "certify_trials" int (fun c -> c.certify_trials)
    |> field "exhaustive" bool (fun c -> c.exhaustive)
    |> field "seed" decimal (fun c -> c.seed)
    |> obj)

let certify_violation =
  Codec.(
    record (fun trial history -> (trial, history))
    |> field "trial" int fst
    |> field "history" history snd
    |> obj)

let codec =
  Codec.(
    record
      (fun policy cfg cands sound conjuncts frontier witnesses separations certified
           certify_violation ->
        {
          policy;
          cfg;
          cands;
          sound;
          conjuncts;
          frontier;
          witnesses;
          separations;
          certified;
          certify_violation;
          counters = [||];
        })
    |> header ~kind ~version
    |> field "policy" string (fun o -> o.policy)
    |> inline config (fun o -> o.cfg)
    |> field "candidates" (list string) (fun o -> o.cands)
    |> field "sound" (list string) (fun o -> o.sound)
    |> field "conjuncts" (list string) (fun o -> o.conjuncts)
    |> field "frontier" (list string) (fun o -> o.frontier)
    |> field "witnesses" (list witness) (fun o -> o.witnesses)
    |> field "separations" (list witness) (fun o -> o.separations)
    |> field "certified" bool (fun o -> o.certified)
    |> field "certify_violation" (nullable certify_violation) (fun o ->
           o.certify_violation)
    |> obj)

type replay = {
  loaded : outcome;
  witnesses_valid : bool;
  fuzz_reproduced : bool;
  separations_valid : bool;
}

let replay o =
  let* adversary = Spec.adversary o.policy in
  let* named = predicates_of o.cands in
  let* sound_named = predicates_of o.sound in
  let derived = conj_of sound_named in
  let pair_valid w =
    Rrfd.Predicate.holds derived w.history
    && not (Rrfd.Predicate.holds (List.assoc w.spec named) w.history)
  in
  let witnesses_valid =
    List.for_all pair_valid o.witnesses && List.for_all pair_valid o.separations
  in
  let fuzz_reproduced =
    List.for_all
      (fun w ->
        match w.source with
        | Exhaustive -> true
        | Fuzz trial ->
          let rng = Dsim.Rng.derive ~seed:(observe_seed o.cfg) ~stream:trial in
          let h, _ =
            induced_history ~adversary ~n:o.cfg.n ~f:o.cfg.f
              ~rounds:o.cfg.rounds ~rng
          in
          Rrfd.Fault_history.equal h w.history)
      o.witnesses
  in
  let separations_valid =
    List.for_all
      (fun w ->
        let q = List.assoc w.spec named in
        match find_separation ~n:o.cfg.n ~rounds:o.cfg.rounds ~derived ~q with
        | Some h -> Rrfd.Fault_history.equal h w.history
        | None -> false)
      o.separations
  in
  Ok { loaded = o; witnesses_valid; fuzz_reproduced; separations_valid }

let reproduced r =
  r.witnesses_valid && r.fuzz_reproduced && r.separations_valid
