type 'out execution = {
  substrate : string;
  decisions : 'out option array;
  decision_rounds : int option array;
  rounds_used : int;
  induced : Fault_history.t;
  counters : Counters.t;
  violation : string option;
  crashed : Pset.t;
  completed : int array;
  wall_ns : int64 option;
}

let comparable ex i = ex.completed.(i) = Fault_history.rounds ex.induced

let agrees ~equal ex ~replayed =
  let agree i d =
    match (d, replayed.(i)) with
    | None, None -> true
    | Some x, Some y -> equal x y
    | _ -> false
  in
  let ok = ref true in
  Array.iteri
    (fun i d -> if comparable ex i && not (agree i d) then ok := false)
    ex.decisions;
  !ok
