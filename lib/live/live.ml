module Patience = Patience
module Mailbox = Mailbox

(* Raised inside a worker when another worker already failed; never
   escapes [run]. *)
exception Aborted

(* One OCaml domain per process, and the runtime caps domains at ~128 —
   a real bound of this substrate, independent of Pset's width. *)
let max_processes = 127

let run ?(patience = Patience.Wait_quorum) ~n ~f ~rounds ~algorithm () =
  if n < 1 || n > max_processes then
    invalid_arg
      (Printf.sprintf "Live.run: n = %d outside 1..%d" n max_processes);
  if f < 0 || f >= n then
    invalid_arg (Printf.sprintf "Live.run: f = %d outside 0..n-1" f);
  if rounds < 0 then invalid_arg "Live.run: rounds < 0";
  let boxes = Array.init n (fun _ -> Mailbox.create ()) in
  (* First failure wins; everyone else sees the flag at the next round
     boundary (pokes unblock the ones parked in [receive]). *)
  let abort : exn option Atomic.t = Atomic.make None in
  let fail e =
    ignore (Atomic.compare_and_set abort None (Some e));
    Array.iter Mailbox.poke boxes
  in
  (* Per-process slots: each is written only by the owning domain before
     the join, read only after — the join is the happens-before edge. *)
  let decisions = Array.make n None in
  let decision_rounds = Array.make n None in
  let heard_logs = Array.make n [] (* newest round first *) in
  let accepted = Array.make n 0 in
  let completed = Array.make n 0 in
  let full = Rrfd.Pset.full n in
  let quorum = n - f in
  let worker i () =
    try
      let buffers : (int, 'm option array) Hashtbl.t = Hashtbl.create 8 in
      let buffer_for round =
        match Hashtbl.find_opt buffers round with
        | Some b -> b
        | None ->
          let b = Array.make n None in
          Hashtbl.add buffers round b;
          b
      in
      let current = ref 1 in
      (* Accept an envelope: file it unless its round already completed
         here (late mail is exactly what omission means) or the slot is
         already filled
         (a duplicate cannot happen, but stay idempotent). *)
      let file (from, round, msg) =
        if round >= !current then begin
          let b = buffer_for round in
          if Option.is_none b.(from) then begin
            b.(from) <- Some msg;
            accepted.(i) <- accepted.(i) + 1
          end
        end
      in
      let state = ref (algorithm.Rrfd.Algorithm.init ~n i) in
      for round = 1 to rounds do
        current := round;
        let msg = algorithm.Rrfd.Algorithm.emit !state ~round in
        (* Self-delivery at emit: i always hears itself, so i ∉ D(i,r)
           and the induced history can never be the paper's excluded
           D = S. *)
        file (i, round, msg);
        for j = 0 to n - 1 do
          if j <> i then Mailbox.post boxes.(j) ~from:i ~round msg
        done;
        let b = buffer_for round in
        let count () =
          Array.fold_left (fun c m -> if Option.is_some m then c + 1 else c) 0 b
        in
        let target =
          match patience with
          | Patience.Wait_quorum -> quorum
          | Patience.Wait_all | Patience.Deadline _ -> n
        in
        let deadline_ns =
          match patience with
          | Patience.Deadline ns -> Some (Int64.add (Mailbox.now_ns ()) ns)
          | Patience.Wait_all | Patience.Wait_quorum -> None
        in
        let rec collect () =
          (match Atomic.get abort with
          | Some _ -> raise Aborted
          | None -> ());
          if count () < target then begin
            let expired =
              match deadline_ns with
              | Some d -> Mailbox.now_ns () >= d
              | None -> false
            in
            if not expired then begin
              List.iter file (Mailbox.receive boxes.(i) ?deadline_ns ());
              collect ()
            end
          end
        in
        collect ();
        let heard = Rrfd.Pset.filter (fun j -> Option.is_some b.(j)) full in
        heard_logs.(i) <- heard :: heard_logs.(i);
        Hashtbl.remove buffers round;
        let view =
          Rrfd.View.of_option_array b ~faulty:(Rrfd.Pset.diff full heard)
        in
        state := algorithm.Rrfd.Algorithm.deliver !state ~round ~view;
        completed.(i) <- round;
        if Option.is_none decisions.(i) then begin
          match algorithm.Rrfd.Algorithm.decide !state with
          | Some _ as d ->
            decisions.(i) <- d;
            decision_rounds.(i) <- Some round
          | None -> ()
        end
      done
    with
    | Aborted -> ()
    | e -> fail e
  in
  let t0 = Mailbox.now_ns () in
  let spawned = Array.init (n - 1) (fun k -> Domain.spawn (worker (k + 1))) in
  worker 0 ();
  Array.iter Domain.join spawned;
  let wall_ns = Int64.sub (Mailbox.now_ns ()) t0 in
  (match Atomic.get abort with Some e -> raise e | None -> ());
  let record = Msgnet.Heard_of.create ~n in
  for i = 0 to n - 1 do
    List.iteri
      (fun k heard -> Msgnet.Heard_of.note record i ~round:(k + 1) ~heard ())
      (List.rev heard_logs.(i))
  done;
  let induced = Msgnet.Heard_of.to_history record in
  let counters =
    {
      Rrfd.Counters.rounds = Rrfd.Fault_history.rounds induced;
      messages = Array.fold_left ( + ) 0 accepted;
      detector_queries = 0;
      predicate_checks = 0;
    }
  in
  {
    Rrfd.Substrate.substrate = "live";
    decisions;
    decision_rounds;
    rounds_used = rounds;
    induced;
    counters;
    violation = None;
    crashed = Rrfd.Pset.empty;
    completed;
    wall_ns = Some wall_ns;
  }

let effective_jobs ?jobs ~n_procs () =
  let recommended = Domain.recommended_domain_count () in
  let requested = Option.value jobs ~default:recommended in
  max 1 (min requested (recommended / max 1 n_procs))
