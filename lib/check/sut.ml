module Catalog = Protocols.Catalog

(* A catalog entry plus the horizon the fuzzer draws, fixed at the
   entry's default n and f. *)
type t = { entry : Catalog.t; rounds : int }

let name sut = Catalog.name sut.entry

let rounds sut = sut.rounds

let pp_out sut = Catalog.pp_out sut.entry

let default_inputs ~n = Tasks.Inputs.distinct n

let of_protocol entry =
  let n = Catalog.default_n entry in
  { entry; rounds = Catalog.horizon entry ~n ~f:(Catalog.default_f entry ~n) }

let run sut ~n ~max_rounds ~check ~detector =
  let inputs = default_inputs ~n in
  let ex =
    Catalog.run_engine sut.entry ~inputs ~check ~max_rounds ~n
      ~f:(Catalog.default_f sut.entry ~n) ~detector ()
  in
  {
    Property.n;
    inputs;
    decisions = ex.Rrfd.Substrate.decisions;
    decision_rounds = ex.Rrfd.Substrate.decision_rounds;
    rounds_used = ex.Rrfd.Substrate.rounds_used;
    history = ex.Rrfd.Substrate.induced;
    violation = ex.Rrfd.Substrate.violation;
  }

(* A run of [rounds] chosen rounds is padded with failure-free rounds up
   to the protocol's horizon.  Without the padding, shrinking away a round
   of a multi-round protocol would starve it of rounds and every candidate
   would "fail" by trivial non-termination; with it, a shortened history
   means "the adversary goes quiet", and the online predicate check
   rejects paddings the model forbids (e.g. crash-closure never lets the
   adversary unsuspect anyone). *)
let horizon sut ~rounds = max rounds sut.rounds

let run_padded sut ~n ~rounds ~check ~detector =
  run sut ~n ~max_rounds:(horizon sut ~rounds) ~check
    ~detector:(Rrfd.Detector.quiet_after ~n ~rounds detector)

(* [of_history] already goes quiet past the history's last round. *)
let run_history sut ~check history =
  run sut ~n:(Rrfd.Fault_history.n history)
    ~max_rounds:(horizon sut ~rounds:(Rrfd.Fault_history.rounds history))
    ~check ~detector:(Rrfd.Detector.of_history history)

let transcript sut ~check history =
  let n = Rrfd.Fault_history.n history in
  fst
    (Catalog.transcript sut.entry ~check ~n ~f:(Catalog.default_f sut.entry ~n)
       ~max_rounds:(horizon sut ~rounds:(Rrfd.Fault_history.rounds history))
       ~detector:(Rrfd.Detector.of_history history) ())
