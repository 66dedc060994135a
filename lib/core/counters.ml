type t = {
  rounds : int;
  messages : int;
  detector_queries : int;
  predicate_checks : int;
}

let zero = { rounds = 0; messages = 0; detector_queries = 0; predicate_checks = 0 }

let add a b =
  {
    rounds = a.rounds + b.rounds;
    messages = a.messages + b.messages;
    detector_queries = a.detector_queries + b.detector_queries;
    predicate_checks = a.predicate_checks + b.predicate_checks;
  }

let of_history history =
  let n = Fault_history.n history in
  let messages =
    Fault_history.fold_rounds
      (fun _round sets acc ->
        Array.fold_left (fun acc d -> acc + (n - Pset.cardinal d)) acc sets)
      history 0
  in
  let rounds = Fault_history.rounds history in
  { rounds; messages; detector_queries = rounds; predicate_checks = 0 }

let to_fields t =
  [
    ("rounds", t.rounds);
    ("messages", t.messages);
    ("detector-queries", t.detector_queries);
    ("predicate-checks", t.predicate_checks);
  ]
