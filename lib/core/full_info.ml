type t =
  | Initial of Proc.t * int
  | Node of { owner : Proc.t; round : int; heard : t option array; faulty : Pset.t }

let owner = function Initial (p, _) -> p | Node { owner; _ } -> owner

let rec equal a b =
  match (a, b) with
  | Initial (p, v), Initial (q, w) -> Proc.equal p q && v = w
  | Node a', Node b' ->
    Proc.equal a'.owner b'.owner
    && a'.round = b'.round
    && Pset.equal a'.faulty b'.faulty
    && Array.length a'.heard = Array.length b'.heard
    && Array.for_all2
         (fun x y ->
           match (x, y) with
           | None, None -> true
           | Some x, Some y -> equal x y
           | None, Some _ | Some _, None -> false)
         a'.heard b'.heard
  | Initial _, Node _ | Node _, Initial _ -> false

let algorithm ~inputs =
  {
    Algorithm.name = "full-information";
    init = (fun ~n p ->
      if Array.length inputs <> n then
        invalid_arg "Full_info.algorithm: inputs length mismatch";
      Initial (p, inputs.(p)));
    emit = (fun state ~round:_ -> state);
    deliver =
      (fun state ~round ~view ->
        let me = owner state in
        let heard = View.to_option_array view in
        (* Even when told faulty itself, a process knows its own round
           message through its local state (Sec. 1). *)
        (match heard.(me) with
        | None -> heard.(me) <- Some state
        | Some _ -> ());
        Node { owner = me; round; heard; faulty = View.faulty view });
    decide = (fun state -> Some state);
  }
