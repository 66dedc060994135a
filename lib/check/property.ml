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

let k_agreement ~k =
  make
    ~name:(Printf.sprintf "k-agreement(k=%d)" k)
    ~doc:(Printf.sprintf "at most %d distinct values are decided" k)
    (fun o ->
      let report = Tasks.Agreement.evaluate ~inputs:o.inputs ~decisions:o.decisions in
      let distinct = List.length report.Tasks.Agreement.distinct_values in
      if distinct <= k then None
      else
        Some
          (Printf.sprintf "%d distinct decisions %s, want ≤ %d" distinct
             (String.concat ","
                (List.map string_of_int report.Tasks.Agreement.distinct_values))
             k))

let agreement = make ~name:"agreement" ~doc:"all decided values are equal"
    (fun o -> check (k_agreement ~k:1) o)

let validity =
  make ~name:"validity" ~doc:"every decided value is some process's input"
    (fun o ->
      let report = Tasks.Agreement.evaluate ~inputs:o.inputs ~decisions:o.decisions in
      match report.Tasks.Agreement.invalid with
      | [] -> None
      | (p, v) :: _ ->
        Some (Printf.sprintf "p%d decided %d, which is nobody's input" p v))

let termination =
  make ~name:"termination" ~doc:"every process decides within the horizon"
    (fun o ->
      let report = Tasks.Agreement.evaluate ~inputs:o.inputs ~decisions:o.decisions in
      match report.Tasks.Agreement.undecided with
      | [] -> None
      | ps ->
        Some
          (Printf.sprintf "undecided after %d round(s): %s" o.rounds_used
             (String.concat "," (List.map (Printf.sprintf "p%d") ps))))

(* The packing itself lives in core ({!Rrfd.Adopt_commit.encode}) so the
   protocol catalog, which check depends on, shares the single definition. *)
let decode_outcome = Rrfd.Adopt_commit.decode

let adopt_commit_coherence =
  make ~name:"adopt-commit"
    ~doc:
      "decisions, decoded as adopt-commit outcomes, satisfy convergence, \
       agreement and validity"
    (fun o ->
      let outcomes = Array.map (Option.map decode_outcome) o.decisions in
      Rrfd.Adopt_commit.check_outcomes ~inputs:o.inputs outcomes)
