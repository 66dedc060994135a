type t = {
  name : string;
  rounds : int;
  pp_out : Format.formatter -> int -> unit;
  run_fn :
    n:int ->
    max_rounds:int ->
    check:Rrfd.Predicate.t ->
    detector:Rrfd.Detector.t ->
    Property.obs;
  transcript_fn :
    n:int ->
    max_rounds:int ->
    check:Rrfd.Predicate.t ->
    detector:Rrfd.Detector.t ->
    string;
}

let name sut = sut.name

let rounds sut = sut.rounds

let pp_out sut = sut.pp_out

let default_inputs ~n = Tasks.Inputs.distinct n

let obs_of_outcome ~n ~inputs (outcome : int Rrfd.Engine.outcome) =
  {
    Property.n;
    inputs;
    decisions = outcome.Rrfd.Engine.decisions;
    decision_rounds = outcome.Rrfd.Engine.decision_rounds;
    rounds_used = outcome.Rrfd.Engine.rounds_used;
    history = outcome.Rrfd.Engine.history;
    violation = outcome.Rrfd.Engine.violation;
  }

let make ~name ~rounds ~pp_msg ?(pp_out = Format.pp_print_int) algo =
  {
    name;
    rounds;
    pp_out;
    run_fn =
      (fun ~n ~max_rounds ~check ~detector ->
        let inputs = default_inputs ~n in
        let outcome =
          Rrfd.Engine.run ~n ~max_rounds ~check ~algorithm:(algo ~inputs)
            ~detector ()
        in
        obs_of_outcome ~n ~inputs outcome);
    transcript_fn =
      (fun ~n ~max_rounds ~check ~detector ->
        let inputs = default_inputs ~n in
        let trace =
          Rrfd.Trace.record ~n ~max_rounds ~check ~pp_msg
            ~algorithm:(algo ~inputs) ~detector ()
        in
        Format.asprintf "@[<v>%a@]" (Rrfd.Trace.pp pp_out) trace);
  }

let run sut ~n ~max_rounds ~check ~detector =
  sut.run_fn ~n ~max_rounds ~check ~detector

(* Replay a pinned history, padded with failure-free rounds up to the
   protocol's horizon.  Without the padding, shrinking away a round of a
   multi-round protocol would starve it of rounds and every candidate would
   "fail" by trivial non-termination; with it, a shortened history means
   "the adversary goes quiet", and the online predicate check rejects
   paddings the model forbids (e.g. crash-closure never lets the adversary
   unsuspect anyone). *)
let pinned_detector ~n ~sut_rounds history =
  let pinned = Rrfd.Fault_history.rounds history in
  let schedule =
    List.init pinned (fun r ->
        Rrfd.Fault_history.round_sets history ~round:(r + 1))
  in
  let after = Array.make n Rrfd.Pset.empty in
  (Rrfd.Detector.of_schedule ~after schedule, max pinned sut_rounds)

let run_history sut ~check history =
  let n = Rrfd.Fault_history.n history in
  let detector, max_rounds = pinned_detector ~n ~sut_rounds:sut.rounds history in
  sut.run_fn ~n ~max_rounds ~check ~detector

let transcript sut ~check history =
  let n = Rrfd.Fault_history.n history in
  let detector, max_rounds = pinned_detector ~n ~sut_rounds:sut.rounds history in
  sut.transcript_fn ~n ~max_rounds ~check ~detector

(* Derivation from the protocol catalog: the single definition site for
   algorithms.  The closures reproduce [make]'s observations exactly — the
   engine path is the same [Rrfd.Engine.run] call, and the network path
   reads decision rounds off the completion record the same way. *)
let of_protocol p =
  let obs_of_execution ~n ~inputs (ex : int Rrfd.Substrate.execution) =
    {
      Property.n;
      inputs;
      decisions = ex.Rrfd.Substrate.decisions;
      decision_rounds = ex.Rrfd.Substrate.decision_rounds;
      rounds_used = ex.Rrfd.Substrate.rounds_used;
      history = ex.Rrfd.Substrate.induced;
      violation = ex.Rrfd.Substrate.violation;
    }
  in
  let default_n = Protocols.Catalog.default_n p in
  {
    name = Protocols.Catalog.name p;
    rounds =
      Protocols.Catalog.horizon p ~n:default_n
        ~f:(Protocols.Catalog.default_f p ~n:default_n);
    pp_out = Protocols.Catalog.pp_out p;
    run_fn =
      (fun ~n ~max_rounds ~check ~detector ->
        let inputs = default_inputs ~n in
        let ex =
          Protocols.Catalog.run_engine p ~inputs ~check ~max_rounds ~n
            ~f:(Protocols.Catalog.default_f p ~n) ~detector ()
        in
        obs_of_execution ~n ~inputs ex);
    transcript_fn =
      (fun ~n ~max_rounds ~check ~detector ->
        Protocols.Catalog.transcript p ~check ~n
          ~f:(Protocols.Catalog.default_f p ~n) ~max_rounds ~detector ());
  }

let kset_one_round = of_protocol (Protocols.Catalog.find_exn "kset-one-round")

let consensus = of_protocol (Protocols.Catalog.find_exn "consensus")

let adopt_commit = of_protocol (Protocols.Catalog.find_exn "adopt-commit")
