type state = {
  known : int list; (* sorted, distinct *)
  horizon : int;
  decision : int option;
}

let merge a b = List.sort_uniq Int.compare (List.rev_append a b)

let min_flood ~inputs ~horizon =
  if horizon < 1 then invalid_arg "Flood.min_flood: horizon must be ≥ 1";
  {
    Rrfd.Algorithm.name = Printf.sprintf "min-flood(horizon=%d)" horizon;
    init =
      (fun ~n p ->
        if Array.length inputs <> n then
          invalid_arg "Flood.min_flood: inputs length mismatch";
        { known = [ inputs.(p) ]; horizon; decision = None });
    emit = (fun s ~round:_ -> s.known);
    deliver =
      (fun s ~round ~view ->
        let known =
          Rrfd.View.fold (fun _ vs acc -> merge acc vs) view s.known
        in
        let decision =
          if round >= s.horizon && Option.is_none s.decision then
            match known with v :: _ -> Some v | [] -> assert false
          else s.decision
        in
        { s with known; decision });
    decide = (fun s -> s.decision);
  }

let consensus ~inputs ~f = min_flood ~inputs ~horizon:(f + 1)

let kset ~inputs ~f ~k =
  if k <= 0 || f < k then invalid_arg "Flood.kset: need f ≥ k > 0";
  min_flood ~inputs ~horizon:((f / k) + 1)
