type 'out round = {
  number : int;
  emissions : string array;
  fault_sets : Pset.t array;
  new_decisions : (Proc.t * 'out) list;
}

type 'out t = {
  n : int;
  rounds : 'out round list;
  outcome : 'out Substrate.execution;
}

(* Watch the engine's own run: each state carries its process id, so the
   wrapped [emit] files the rendered message under (round, process) as
   the engine asks for it.  Fault sets and first decisions are read off
   the outcome afterwards. *)
let record ~n ?max_rounds ?check ?stop_when_decided ~pp_msg ~algorithm
    ~detector () =
  let open Algorithm in
  let emitted = Hashtbl.create 8 in
  let watched =
    {
      name = algorithm.name;
      init = (fun ~n i -> (i, algorithm.init ~n i));
      emit =
        (fun (i, s) ~round ->
          let m = algorithm.emit s ~round in
          Hashtbl.replace emitted (round, i) (Format.asprintf "%a" pp_msg m);
          m);
      deliver =
        (fun (i, s) ~round ~view -> (i, algorithm.deliver s ~round ~view));
      decide = (fun (_, s) -> algorithm.decide s);
    }
  in
  let outcome =
    Engine.run ~n ?max_rounds ?check ?stop_when_decided ~algorithm:watched
      ~detector ()
  in
  let { Substrate.induced = history; decisions; decision_rounds; _ } =
    outcome
  in
  let rounds =
    List.init (Fault_history.rounds history) (fun r ->
        let number = r + 1 in
        let decided_now i =
          match (decision_rounds.(i), decisions.(i)) with
          | Some d, Some v when d = number -> Some (i, v)
          | _ -> None
        in
        {
          number;
          emissions = Array.init n (fun i -> Hashtbl.find emitted (number, i));
          fault_sets = Fault_history.round_sets history ~round:number;
          new_decisions = List.filter_map decided_now (List.init n Fun.id);
        })
  in
  { n; rounds; outcome }

let pp pp_out ppf t =
  List.iter
    (fun r ->
      Format.fprintf ppf "@[<v 2>round %d:@," r.number;
      Array.iteri
        (fun i emission ->
          Format.fprintf ppf "p%d emits %s, suspects %a@," i emission Pset.pp
            r.fault_sets.(i))
        r.emissions;
      List.iter
        (fun (p, v) -> Format.fprintf ppf "p%d DECIDES %a@," p pp_out v)
        r.new_decisions;
      Format.fprintf ppf "@]@,")
    t.rounds
