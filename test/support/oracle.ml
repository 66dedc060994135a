(* Reference forms of library code that was rewritten for speed.  Each is
   the plain implementation the lean one replaced, kept here so the
   differential properties can run both on the same input and demand the
   same answer: the same draws, the same votes, the same verdicts and
   messages, the same views. *)

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
