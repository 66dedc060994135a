(* E23 — heard-of predicate rates on the live substrate.

   Every other experiment asks what the model predicts; this one asks
   what an actual machine does.  A grid of system sizes × patience
   policies runs flood-consensus on the live substrate (one OCaml domain
   per process, real mailboxes, real clock), extracts each run's
   heard-of fault history and measures how often the paper's predicates
   P1–P5 hold — wait-for-all should induce failure-free synchrony,
   wait-for-quorum P3 by construction, and a wall-clock deadline
   whatever the scheduler felt like.  The rates are empirical and
   machine-dependent, so the table's [ok] column never depends on them:
   it asserts only the invariant — the pinned engine replay of every
   recorded history reproduces the live decisions bit-for-bit.

   The experiment is split into a nondeterministic {!collect} phase
   (the only part that touches domains or the clock) and a pure
   {!table_of} phase computed from the records alone.  The CLI persists
   {!collect}'s output as a JSON artifact ([live --grid --json]);
   regenerating the table or the artifact from recorded histories
   ([--from]) is deterministic at any [-j], which is what the
   [@live-smoke] gate compares. *)

module Codec = Report.Codec

let protocol = "flood-consensus"

let grid_ns = [ 3; 5; 7 ]

let policies =
  [
    Live.Patience.Wait_all;
    Live.Patience.Wait_quorum;
    Live.Patience.Deadline 50_000L;
  ]

let f_for n = (n - 1) / 2

type recorded = {
  n : int;
  f : int;
  patience : string;  (** Canonical {!Live.Patience.to_string} form. *)
  inputs : int array;
  history : Rrfd.Fault_history.t;  (** The induced heard-of history. *)
  decisions : int option array;  (** The live run's decisions. *)
  wall_ns : int64;
}

(* {2 The live phase} *)

let collect ~seed ?(trials = 12) ?jobs () =
  let proto = Protocols.Catalog.find_exn protocol in
  let cell_idx = ref 0 in
  List.concat_map
    (fun n ->
      let f = f_for n in
      let jobs =
        Some (Live.effective_jobs ?jobs ~n_procs:n ())
        (* each trial spawns [n] domains of its own: cap the pool so
           workers × processes stays within the machine *)
      in
      List.concat_map
        (fun patience ->
          let idx = !cell_idx in
          incr cell_idx;
          Runtime.Campaign.run ?jobs
            ~seed:(Dsim.Rng.derive_seed seed idx)
            ~trials
            (fun ~trial:_ ~rng ->
              let inputs = Tasks.Inputs.distinct n in
              Dsim.Rng.shuffle_in_place rng inputs;
              let ex =
                Protocols.Catalog.run_live proto ~inputs ~patience ~n ~f ()
              in
              {
                n;
                f;
                patience = Live.Patience.to_string patience;
                inputs;
                history = ex.Rrfd.Substrate.induced;
                decisions = ex.Rrfd.Substrate.decisions;
                wall_ns = Option.get ex.Rrfd.Substrate.wall_ns;
              })
          |> Array.to_list)
        policies)
    grid_ns

(* {2 The deterministic phase} *)

let predicate_names = List.map fst (Msgnet.Heard_of.paper_predicates ~f:0)

type cell_row = {
  cell_n : int;
  cell_patience : string;
  cell_trials : int;
  matched : int;  (** Trials whose pinned replay reproduced the run. *)
  satisfied : (string * int) list;  (** Per-predicate satisfaction counts. *)
  counters : Rrfd.Counters.t array;
}

(* A record as the execution it recorded.  Live processes run the full
   horizon, so every process completed every round and is comparable. *)
let execution_of r =
  let rounds = Rrfd.Fault_history.rounds r.history in
  {
    Rrfd.Substrate.substrate = "live";
    decisions = r.decisions;
    decision_rounds = Array.make r.n None;
    rounds_used = rounds;
    induced = r.history;
    counters = Rrfd.Counters.of_history r.history;
    violation = None;
    crashed = Rrfd.Pset.empty;
    completed = Array.make r.n rounds;
    wall_ns = Some r.wall_ns;
  }

(* Everything below is a pure function of the records: replays, predicate
   classification and work counters all derive from the recorded history
   (and inputs), never from a clock or a domain.  [Pool.map_range] keeps
   the regeneration parallel yet deterministic — results land in cell
   order whatever the worker count. *)
let cells_of records =
  let proto = Protocols.Catalog.find_exn protocol in
  let keys =
    List.concat_map
      (fun n -> List.map (fun p -> (n, Live.Patience.to_string p)) policies)
      grid_ns
  in
  let cells = Array.of_list keys in
  Runtime.Pool.map_range ~n:(Array.length cells) (fun i ->
      let cell_n, cell_patience = cells.(i) in
      let mine =
        List.filter
          (fun r -> r.n = cell_n && r.patience = cell_patience)
          records
      in
      let matched = ref 0 in
      let satisfied =
        List.map (fun p -> (p, ref 0)) predicate_names
      in
      let counters =
        List.map
          (fun r ->
            let ex = execution_of r in
            let replayed =
              Protocols.Catalog.replay proto ~inputs:r.inputs ~f:r.f
                ~history:r.history ()
            in
            if
              Rrfd.Substrate.agrees ~equal:Int.equal ex
                ~replayed:replayed.Rrfd.Substrate.decisions
            then incr matched;
            List.iter
              (fun (name, holds) ->
                if holds then incr (List.assoc name satisfied))
              (Msgnet.Heard_of.classify ~f:r.f r.history);
            ex.Rrfd.Substrate.counters)
          mine
      in
      {
        cell_n;
        cell_patience;
        cell_trials = List.length mine;
        matched = !matched;
        satisfied = List.map (fun (p, c) -> (p, !c)) satisfied;
        counters = Array.of_list counters;
      })
  |> Array.to_list

let table_of records =
  let cells = cells_of records in
  let rows =
    List.map
      (fun c ->
        Table.cell_int c.cell_n :: c.cell_patience
        :: Table.cell_int c.cell_trials
        :: Table.cell_int c.matched
        :: (List.map (fun (_, k) -> Table.cell_int k) c.satisfied
           @ [ Table.cell_bool (c.matched = c.cell_trials) ]))
      cells
  in
  {
    Table.id = "E23";
    title = "live-substrate heard-of predicate rates (n × patience)";
    claim =
      "real concurrency is just another round-by-round environment: every \
       fault history a machine induces under a patience policy replays \
       pinned on the abstract engine with identical decisions, and the \
       paper's predicates measure which model the machine happened to \
       inhabit";
    header =
      [ "n"; "patience"; "trials"; "matched" ] @ predicate_names @ [ "ok" ];
    rows;
    notes =
      [
        Printf.sprintf
          "protocol = %s, f = (n-1)/2, rounds = protocol horizon; trials \
           ran live (one domain per process)"
          protocol;
        "matched counts trials whose pinned engine replay of the recorded \
         history reproduced the live decisions; ok requires matched = \
         trials and never depends on the (machine-dependent) P1–P5 rates";
        "P1..P5 count recorded histories satisfying each paper predicate \
         at the cell's f";
      ];
    counters =
      Table.counter_stats
        (Array.concat (List.map (fun c -> c.counters) cells));
  }

let run ~seed ?trials ?jobs () = table_of (collect ~seed ?trials ?jobs ())

(* {2 Artifact codec}

   Version-tagged so [live --grid --from] can refuse foreign files. *)

let version = 1

let kind = "rrfd-live-grid"

let wall_ns =
  Codec.(
    map string ~enc:Int64.to_string ~dec:(fun s ->
        match Int64.of_string_opt s with
        | Some v -> v
        | None -> fail "bad wall_ns %s" s))

(* A record must be one the replay accepts: [0 <= f < n], and inputs,
   decisions and history all of width [n].  Anything else is refused at
   load rather than raising halfway through the regeneration. *)
let replayable r =
  if r.f < 0 || r.f >= r.n then
    Codec.fail "f = %d is outside [0, n) for n = %d" r.f r.n;
  let sized field width =
    if width <> r.n then
      Codec.fail "%s has width %d, expected n = %d" field width r.n
  in
  sized "inputs" (Array.length r.inputs);
  sized "decisions" (Array.length r.decisions);
  sized "history" (Rrfd.Fault_history.n r.history);
  r

let recording =
  Codec.(
    record (fun n f patience inputs history decisions wall_ns ->
        { n; f; patience; inputs; history; decisions; wall_ns })
    |> field "n" int (fun r -> r.n)
    |> field "f" int (fun r -> r.f)
    |> field "patience" string (fun r -> r.patience)
    |> field "inputs" (array int) (fun r -> r.inputs)
    |> field "history" history (fun r -> r.history)
    |> field "decisions" decisions (fun r -> r.decisions)
    |> field "wall_ns" wall_ns (fun r -> r.wall_ns)
    |> obj
    |> map ~enc:Fun.id ~dec:replayable)

let codec =
  Codec.(
    record (fun _protocol records -> records)
    |> header ~kind ~version
    |> field "protocol" string (fun _ -> protocol)
    |> field "records" (list recording) Fun.id
    |> obj)
