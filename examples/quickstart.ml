(* Quickstart: the RRFD framework in ~60 lines.

   We build the Section-3 system — a round-by-round fault detector
   guaranteeing |∪D − ∩D| < k every round — and run the paper's one-round
   k-set agreement algorithm (Theorem 3.1) against it.

     dune exec examples/quickstart.exe *)

let () =
  let n = 8 and k = 3 in
  let rng = Dsim.Rng.create 42 in

  (* Every process proposes its own id — the hardest input for agreement. *)
  let inputs = Tasks.Inputs.distinct n in

  (* An adversarial detector whose histories satisfy the k-set predicate.
     The engine re-checks the predicate online, so a buggy adversary is
     caught at the first offending round. *)
  let detector = Rrfd.Detector_gen.k_set rng ~n ~k in

  let outcome =
    Rrfd.Engine.run ~n
      ~check:(Rrfd.Predicate.k_set ~k)
      ~algorithm:(Rrfd.Kset.one_round ~inputs)
      ~detector ()
  in

  Printf.printf "system: n = %d processes, k-set detector with k = %d\n" n k;
  Printf.printf "rounds used: %d (Theorem 3.1 promises exactly 1)\n"
    outcome.Rrfd.Substrate.rounds_used;

  (* What did the detector do, and what did everyone decide? *)
  Format.printf "fault history:@.%a@." Rrfd.Fault_history.pp
    outcome.Rrfd.Substrate.induced;
  Array.iteri
    (fun i d ->
      match d with
      | Some v -> Printf.printf "  p%d decided %d\n" i v
      | None -> Printf.printf "  p%d undecided\n" i)
    outcome.Rrfd.Substrate.decisions;

  (* The checker: validity, termination, and at most k distinct values. *)
  (match Tasks.Agreement.check ~k ~inputs outcome.Rrfd.Substrate.decisions with
  | None ->
    Printf.printf "k-set agreement: OK (%d distinct decision(s), bound %d)\n"
      (Tasks.Agreement.distinct_decisions ~decisions:outcome.Rrfd.Substrate.decisions)
      k
  | Some reason -> Printf.printf "k-set agreement VIOLATED: %s\n" reason);

  (* Consensus is the k = 1 case: under the equation-(5) detector (all
     processes get the same fault set) the same algorithm decides one
     value. *)
  let detector = Rrfd.Detector_gen.identical rng ~n in
  let outcome =
    Rrfd.Engine.run ~n ~algorithm:(Rrfd.Kset.consensus ~inputs) ~detector ()
  in
  Printf.printf "consensus under identical views: %s\n"
    (match Tasks.Agreement.check ~k:1 ~inputs outcome.Rrfd.Substrate.decisions with
    | None -> "OK"
    | Some reason -> "VIOLATED: " ^ reason)
