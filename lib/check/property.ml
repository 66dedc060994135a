type obs = {
  n : int;
  inputs : int array;
  decisions : int option array;
  decision_rounds : int option array;
  rounds_used : int;
  history : Rrfd.Fault_history.t;
  violation : string option;
}

type t = { name : string; doc : string; check : obs -> string option }

let name p = p.name

let doc p = p.doc

let check p o = p.check o

let make ~name ~doc check = { name; doc; check }

let first_failure props o =
  List.find_map
    (fun p -> Option.map (fun msg -> (p, msg)) (p.check o))
    props

(* The stock properties decide with a scan and build the
   [Tasks.Agreement] report, and the message, only for a failing run.  A
   length mismatch takes the report path too, which rejects it. *)
let report o = Tasks.Agreement.evaluate ~inputs:o.inputs ~decisions:o.decisions

let lengths_match o = Array.length o.decisions = Array.length o.inputs

let distinct_at_most ~k o =
  let d = o.decisions in
  let distinct = ref 0 in
  for i = 0 to Array.length d - 1 do
    match d.(i) with
    | None -> ()
    | Some v ->
      let fresh = ref true in
      for j = 0 to i - 1 do
        match d.(j) with Some w when Int.equal w v -> fresh := false | _ -> ()
      done;
      if !fresh then incr distinct
  done;
  !distinct <= k

let k_agreement_check ~k o =
  if lengths_match o && distinct_at_most ~k o then None
  else
    let distinct_values = (report o).Tasks.Agreement.distinct_values in
    Some
      (Printf.sprintf "%d distinct decisions %s, want ≤ %d"
         (List.length distinct_values)
         (String.concat "," (List.map string_of_int distinct_values))
         k)

let k_agreement ~k =
  make
    ~name:(Printf.sprintf "k-agreement(k=%d)" k)
    ~doc:(Printf.sprintf "at most %d distinct values are decided" k)
    (k_agreement_check ~k)

let agreement =
  make ~name:"agreement" ~doc:"all decided values are equal"
    (k_agreement_check ~k:1)

let is_input inputs v =
  let found = ref false in
  for i = 0 to Array.length inputs - 1 do
    if Int.equal inputs.(i) v then found := true
  done;
  !found

let all_valid o =
  let ok = ref true in
  for i = 0 to Array.length o.decisions - 1 do
    match o.decisions.(i) with
    | Some v when not (is_input o.inputs v) -> ok := false
    | Some _ | None -> ()
  done;
  !ok

let validity =
  make ~name:"validity" ~doc:"every decided value is some process's input"
    (fun o ->
      if lengths_match o && all_valid o then None
      else
        match (report o).Tasks.Agreement.invalid with
        | [] -> None
        | (p, v) :: _ ->
          Some (Printf.sprintf "p%d decided %d, which is nobody's input" p v))

let all_decided o = Array.for_all Option.is_some o.decisions

let termination =
  make ~name:"termination" ~doc:"every process decides within the horizon"
    (fun o ->
      if lengths_match o && all_decided o then None
      else
        match (report o).Tasks.Agreement.undecided with
        | [] -> None
        | ps ->
          Some
            (Printf.sprintf "undecided after %d round(s): %s" o.rounds_used
               (String.concat "," (List.map (Printf.sprintf "p%d") ps))))

let adopt_commit_coherence =
  make ~name:"adopt-commit"
    ~doc:
      "decisions, decoded as adopt-commit outcomes, satisfy convergence, \
       agreement and validity"
    (fun o ->
      let outcomes =
        Array.map (Option.map Rrfd.Adopt_commit.decode) o.decisions
      in
      Rrfd.Adopt_commit.check_outcomes ~inputs:o.inputs outcomes)
