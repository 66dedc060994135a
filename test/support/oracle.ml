(* Reference forms of library code that was rewritten for speed.  Each is
   the plain implementation the lean one replaced, kept here so the
   differential properties can run both on the same input and demand the
   same answer: the same draws, the same votes, the same verdicts and
   messages, the same views.  [Full_info] holds the readers the tests use
   to inspect full-information views, which no library code needs. *)

let rng_int t bound =
  if bound <= 1 lsl 30 then Dsim.Rng.bits30 t mod bound
  else Int64.to_int (Int64.shift_right_logical (Dsim.Rng.int64 t) 2) mod bound

module Adopt_commit = struct
  open Rrfd.Adopt_commit

  let all_equal = function
    | [] -> None
    | v :: rest -> if List.for_all (fun w -> w = v) rest then Some v else None

  let propose ~own ~seen =
    match all_equal seen with
    | Some v -> Commit_vote v
    | None -> Adopt_vote own

  let resolve ~own ~seen =
    let commits =
      List.filter_map
        (function Commit_vote v -> Some v | Adopt_vote _ -> None)
        seen
    in
    match commits with
    | [] -> Adopt own
    | v :: _ ->
      if List.length commits = List.length seen && all_equal commits <> None
      then Commit v
      else Adopt v

  let seen ~me ~own view extract =
    let items =
      List.rev (Rrfd.View.fold (fun _ m acc -> extract m :: acc) view [])
    in
    if Rrfd.Pset.mem me (Rrfd.View.faulty view) then own :: items else items
end

module Full_info = struct
  open Rrfd.Full_info

  let rec knows_input_of v p =
    match v with
    | Initial (q, _) -> Rrfd.Proc.equal p q
    | Node { heard; _ } ->
      Array.exists
        (function Some sub -> knows_input_of sub p | None -> false)
        heard

  let known_inputs v =
    let module M = Map.Make (Int) in
    let rec collect v acc =
      match v with
      | Initial (p, value) -> M.add p value acc
      | Node { heard; _ } ->
        Array.fold_left
          (fun acc sub ->
            match sub with Some s -> collect s acc | None -> acc)
          acc heard
    in
    M.bindings (collect v M.empty)

  let heard_from_last_round = function
    | Initial _ -> Rrfd.Pset.empty
    | Node { heard; _ } ->
      let set = ref Rrfd.Pset.empty in
      Array.iteri
        (fun j sub -> if Option.is_some sub then set := Rrfd.Pset.add j !set)
        heard;
      !set
end

module Property = struct
  open Check.Property

  let report o = Tasks.Agreement.evaluate ~inputs:o.inputs ~decisions:o.decisions

  let k_agreement ~k o =
    let r = report o in
    let distinct = List.length r.Tasks.Agreement.distinct_values in
    if distinct <= k then None
    else
      Some
        (Printf.sprintf "%d distinct decisions %s, want ≤ %d" distinct
           (String.concat ","
              (List.map string_of_int r.Tasks.Agreement.distinct_values))
           k)

  let validity o =
    match (report o).Tasks.Agreement.invalid with
    | [] -> None
    | (p, v) :: _ ->
      Some (Printf.sprintf "p%d decided %d, which is nobody's input" p v)

  let termination o =
    match (report o).Tasks.Agreement.undecided with
    | [] -> None
    | ps ->
      Some
        (Printf.sprintf "undecided after %d round(s): %s" o.rounds_used
           (String.concat "," (List.map (Printf.sprintf "p%d") ps)))
end

module Immediate_snapshot = struct
  module Pset = Rrfd.Pset

  module S = Shm.Snapshot.Make (struct
    type t = int (* a process's current level *)
  end)

  (* The generic fiber executor running the textbook body: one effect per
     register operation, Afek-style embedded snapshots underneath. *)
  let run_once ~n ~schedule =
    if n < 1 || n > Pset.max_universe then invalid_arg "Immediate_snapshot: bad n";
    let views = Array.make n Pset.empty in
    let body ~proc =
      let rec descend level =
        S.update ~proc level;
        let levels = S.scan () in
        let at_or_below = ref Pset.empty in
        Array.iteri
          (fun q l ->
            match l with
            | Some lq when lq <= level -> at_or_below := Pset.add q !at_or_below
            | Some _ | None -> ())
          levels;
        if Pset.cardinal !at_or_below >= level then views.(proc) <- !at_or_below
        else descend (level - 1)
      in
      descend n
    in
    let outcome = S.run ~n ~schedule body in
    { Shm.Immediate_snapshot.views; steps = outcome.S.steps }
end

(* The message network before broadcasts became simulator runs: every
   copy of every send, broadcast copies included, is its own simulator
   event with its own closure, scheduled the moment it is planned. *)
module Network = struct
  module Pset = Rrfd.Pset

  type 'msg t = {
    sim : Dsim.Sim.t;
    n : int;
    min_delay : float;
    max_delay : float;
    adversary : Msgnet.Adversary.t;
    tamper : 'msg Msgnet.Network.tamper option;
    log_sends : bool;
    deliver : Dsim.Sim.t -> to_:Rrfd.Proc.t -> from:Rrfd.Proc.t -> 'msg -> unit;
    plan : Float.Array.t;
    mutable crashed : Pset.t;
    mutable log : 'msg Msgnet.Network.signed list;
    mutable seq : int;
    mutable sent : int;
    mutable delivered : int;
    mutable dropped : int;
    mutable duplicated : int;
    mutable tampered : int;
    mutable lost_to_crash : int;
  }

  let pick_delay t =
    t.min_delay
    +. Dsim.Rng.float (Dsim.Sim.rng t.sim) (t.max_delay -. t.min_delay)

  let create ~sim ~n ?(min_delay = 1.0) ?(max_delay = 10.0)
      ?(adversary = Msgnet.Adversary.none) ?tamper ?(log_sends = false) ~deliver
      () =
    {
      sim;
      n;
      min_delay;
      max_delay;
      adversary;
      tamper;
      log_sends;
      deliver;
      plan = Float.Array.create (Msgnet.Adversary.max_copies adversary);
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

  let schedule_delivery t ~from ~to_ ~delay msg =
    Dsim.Sim.schedule t.sim ~delay (fun sim ->
        if Pset.mem to_ t.crashed then t.lost_to_crash <- t.lost_to_crash + 1
        else begin
          t.delivered <- t.delivered + 1;
          t.deliver sim ~to_ ~from msg
        end)

  let send t ~from ~to_ msg =
    if not (Pset.mem from t.crashed) then begin
      let delay = pick_delay t in
      t.sent <- t.sent + 1;
      let msg =
        match (Rrfd.Proc.equal from to_, t.tamper) with
        | true, _ | _, None -> msg
        | false, Some tamper -> (
          match Msgnet.Adversary.byz_behaviour t.adversary from with
          | None -> msg
          | Some behaviour -> (
            match tamper ~behaviour ~now:(Dsim.Sim.now t.sim) ~from ~to_ msg with
            | Some forged ->
              t.tampered <- t.tampered + 1;
              forged
            | None -> msg))
      in
      if t.log_sends then begin
        t.log <-
          {
            Msgnet.Network.seq = t.seq;
            signer = from;
            receiver = to_;
            sent_at = Dsim.Sim.now t.sim;
            payload = msg;
          }
          :: t.log;
        t.seq <- t.seq + 1
      end;
      if Rrfd.Proc.equal from to_ || Msgnet.Adversary.is_noop t.adversary then
        schedule_delivery t ~from ~to_ ~delay msg
      else begin
        Float.Array.set t.plan 0 delay;
        let now = Dsim.Sim.now t.sim in
        let copies =
          Msgnet.Adversary.plan_into t.adversary (Dsim.Sim.rng t.sim)
            ~now:(fun () -> now)
            ~from ~to_
            ~redraw:(fun out k -> Float.Array.set out k (pick_delay t))
            t.plan
        in
        if copies = 0 then t.dropped <- t.dropped + 1
        else begin
          t.duplicated <- t.duplicated + copies - 1;
          for k = 0 to copies - 1 do
            schedule_delivery t ~from ~to_ ~delay:(Float.Array.get t.plan k) msg
          done
        end
      end
    end

  let broadcast t ~from ?(self = true) msg =
    for to_ = 0 to t.n - 1 do
      if self || not (Rrfd.Proc.equal to_ from) then send t ~from ~to_ msg
    done

  let crash t p = t.crashed <- Pset.add p t.crashed

  let signed_log t = List.rev t.log

  let counters t =
    [ t.sent; t.delivered; t.dropped; t.duplicated; t.tampered; t.lost_to_crash ]
end

(* Derivation's observation verdicts before the first-violation scan:
   every candidate judged on every trial into one violation bitmask per
   trial, a candidate's witness the lowest trial whose mask names it. *)
module Derive = struct
  let verdicts ~specs ~preds histories =
    if Array.length preds > 62 then invalid_arg "Oracle.Derive: > 62 candidates";
    let masks =
      Array.map
        (fun h ->
          let mask = ref 0 in
          Array.iteri
            (fun i p ->
              if not (Rrfd.Predicate.holds p h) then mask := !mask lor (1 lsl i))
            preds;
          !mask)
        histories
    in
    let violated = Array.fold_left ( lor ) 0 masks in
    let sound = ref [] and witnesses = ref [] in
    Array.iteri
      (fun i spec ->
        if violated land (1 lsl i) = 0 then sound := spec :: !sound
        else
          let rec first t =
            if masks.(t) land (1 lsl i) <> 0 then t else first (t + 1)
          in
          witnesses := (spec, first 0) :: !witnesses)
      specs;
    (List.rev !sound, List.rev !witnesses)
end

(* The submodel lattice before the orbit walk: every history of the
   space evaluated, one bit per history. *)
module Submodel = struct
  open Rrfd

  type lattice = {
    l_names : string array;
    l_sat : Bytes.t array;  (* l_sat.(p) bit h: predicate p holds on history h *)
  }

  let bit_set bytes i =
    let byte = i lsr 3 and mask = 1 lsl (i land 7) in
    Bytes.unsafe_set bytes byte
      (Char.chr (Char.code (Bytes.unsafe_get bytes byte) lor mask))

  let bytes_subset a b =
    let len = Bytes.length a in
    let rec go i =
      i >= len
      || (Char.code (Bytes.unsafe_get a i)
            land lnot (Char.code (Bytes.unsafe_get b i))
          = 0
         && go (i + 1))
    in
    go 0

  let lattice ~n ~rounds named =
    let names = Array.of_list (List.map fst named) in
    let preds = Array.of_list (List.map snd named) in
    let assignments = Submodel.round_assignments ~n in
    let per_round = List.length assignments in
    let total =
      let rec sum acc pow d =
        if d > rounds then acc else sum (acc + pow) (pow * per_round) (d + 1)
      in
      sum 0 1 0
    in
    let sat = Array.map (fun _ -> Bytes.make ((total + 7) / 8) '\000') names in
    let idx = ref 0 in
    let rec explore history depth =
      let h = !idx in
      incr idx;
      Array.iteri
        (fun p pred -> if Predicate.holds pred history then bit_set sat.(p) h)
        preds;
      if depth < rounds then
        List.iter
          (fun d -> explore (Fault_history.append history d) (depth + 1))
          assignments
    in
    explore (Fault_history.empty ~n) 0;
    { l_names = names; l_sat = sat }

  let index l name =
    let rec find i =
      if i >= Array.length l.l_names then
        invalid_arg (Printf.sprintf "Oracle.Submodel: unknown predicate %S" name)
      else if l.l_names.(i) = name then i
      else find (i + 1)
    in
    find 0

  let implies l a b = bytes_subset l.l_sat.(index l a) l.l_sat.(index l b)

  let equivalent l a b = Bytes.equal l.l_sat.(index l a) l.l_sat.(index l b)

  let strictly_stronger l a b =
    let sa = l.l_sat.(index l a) and sb = l.l_sat.(index l b) in
    bytes_subset sa sb && not (Bytes.equal sa sb)

  let bytes_inter a b =
    let out = Bytes.copy a in
    for i = 0 to Bytes.length a - 1 do
      Bytes.unsafe_set out i
        (Char.chr
           (Char.code (Bytes.unsafe_get a i)
           land Char.code (Bytes.unsafe_get b i)))
    done;
    out

  let meet_sat l first rest =
    List.fold_left
      (fun acc name -> bytes_inter acc l.l_sat.(index l name))
      (Bytes.copy l.l_sat.(index l first))
      rest

  let minimal_conjuncts l names =
    List.iter (fun n -> ignore (index l n)) names;
    let rec prune kept = function
      | [] -> List.rev kept
      | name :: rest ->
        match List.rev_append kept rest with
        | first :: others
          when bytes_subset (meet_sat l first others) l.l_sat.(index l name) ->
          prune kept rest
        | _ -> prune (name :: kept) rest
    in
    prune [] names

  let weakest l names =
    List.iter (fun n -> ignore (index l n)) names;
    List.filter
      (fun m -> not (List.exists (fun u -> strictly_stronger l m u) names))
      names
end
