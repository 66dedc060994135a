(* Every adversary atom's round-layer schedule under pinned seeds.

   [render ()] runs [Msgnet.Round_layer.run] with the full-information
   algorithm for each policy below at two seeds and renders everything
   the run exposes about its schedule: the induced and lie histories,
   the per-process completed rounds, the crashed set, the five message
   counters, the work counters and the virtual time at which the run
   drained (printed exactly, as a hexadecimal float).  A single moved
   RNG draw, a reordered delivery or a changed repair message shows up
   as a diff against test/fixtures/round_layer.expected. *)

module Round_layer = Msgnet.Round_layer

type cell = {
  policy : string;
  n : int;
  f : int;
  rounds : int;
  crashes : (int * float) list;
  retransmit_every : float option;
}

let cell ?(n = 5) ?(f = 2) ?(rounds = 4) ?(crashes = []) ?retransmit_every
    policy =
  { policy; n; f; rounds; crashes; retransmit_every }

let cells =
  [
    cell "none";
    cell ~retransmit_every:7.0 "none";
    cell "drop:p=20";
    cell "dup:p=30,copies=3";
    cell "spike:p=20,factor=8";
    cell "reorder:p=40,window=12";
    cell "partition:at=5,heal=50,left=2";
    cell "byz:m=1,equiv=1";
    cell "byz:m=2,equiv=0,corrupt=1";
    cell "byz:m=1,equiv=1,forge=1";
    cell ~rounds:6 "drop:p=15+dup:p=15,copies=2+spike:p=10+reorder:p=25";
    cell ~crashes:[ (1, 3.0); (3, 12.0) ] "none";
    cell ~crashes:[ (4, 9.5) ] "drop:p=10+dup:p=20";
    cell ~n:3 ~f:1 ~rounds:1 "drop:p=30";
  ]

let seeds = [ 3; 1042 ]

let render_cell buf c ~seed =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let adversary =
    match Msgnet.Adversary.of_spec c.policy with
    | Ok a -> a
    | Error e -> invalid_arg e
  in
  let r =
    Round_layer.run ~seed ~adversary ~crashes:c.crashes
      ?retransmit_every:c.retransmit_every ~n:c.n ~f:c.f ~rounds:c.rounds
      ~algorithm:(Rrfd.Full_info.algorithm ~inputs:(Tasks.Inputs.distinct c.n))
      ()
  in
  let compact = Rrfd.Fault_history.to_string_compact in
  pr "cell %s n=%d f=%d rounds=%d crashes=[%s] retransmit=%s seed=%d\n"
    c.policy c.n c.f c.rounds
    (String.concat ";"
       (List.map (fun (p, t) -> Printf.sprintf "%d@%h" p t) c.crashes))
    (match c.retransmit_every with None -> "-" | Some e -> Printf.sprintf "%h" e)
    seed;
  pr "  induced=%s\n" (compact r.Round_layer.induced);
  pr "  lies=%s\n"
    (compact (Msgnet.Heard_of.to_lie_history r.Round_layer.heard_of));
  pr "  completed=[%s]\n"
    (String.concat ","
       (Array.to_list (Array.map string_of_int r.Round_layer.completed)));
  pr "  crashed=%s\n" (Rrfd.Pset.to_string r.Round_layer.crashed);
  pr "  sent=%d delivered=%d dropped=%d duplicated=%d tampered=%d\n"
    r.Round_layer.messages_sent r.Round_layer.messages_delivered
    r.Round_layer.messages_dropped r.Round_layer.messages_duplicated
    r.Round_layer.messages_tampered;
  pr "  counters=%s\n"
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf "%s:%d" k v)
          (Rrfd.Counters.to_fields r.Round_layer.counters)));
  pr "  decided=%d\n"
    (Array.fold_left
       (fun acc d -> if Option.is_some d then acc + 1 else acc)
       0 r.Round_layer.decisions);
  pr "  virtual_time=%h\n" r.Round_layer.virtual_time

let render () =
  let buf = Buffer.create 4096 in
  List.iter
    (fun c -> List.iter (fun seed -> render_cell buf c ~seed) seeds)
    cells;
  Buffer.contents buf
