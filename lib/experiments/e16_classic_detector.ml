(* E16 — Sections 6-7: the classic detector-augmented route to consensus
   (heartbeats + rotating coordinator over the asynchronous network),
   the approach the RRFD framework reinterprets. *)

let run ~seed ?(trials = 60) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  List.iter
    (fun (n, crash_count) ->
      let f = (n - 1) / 2 in
      let violations = ref 0 and total_phases = ref 0 in
      let total_time = ref 0.0 and undecided_live = ref 0 in
      for t = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let inputs = Array.init n (fun i -> (i * 3) mod 4) in
        let crashes =
          Dsim.Rng.sample_without_replacement trial_rng crash_count n
          |> List.map (fun p -> (p, Dsim.Rng.float trial_rng 50.0))
        in
        let r = Msgnet.Ct_consensus.run ~seed:(seed + t) ~n ~f ~inputs ~crashes () in
        let crashed = Rrfd.Pset.of_list (List.map fst crashes) in
        (match
           Tasks.Agreement.check ~allow_undecided:crashed ~k:1 ~inputs
             r.Msgnet.Ct_consensus.decisions
         with
        | None -> ()
        | Some _ -> incr violations);
        Array.iteri
          (fun i d ->
            if (not (Rrfd.Pset.mem i crashed)) && Option.is_none d then
              incr undecided_live)
          r.Msgnet.Ct_consensus.decisions;
        total_phases := !total_phases + r.Msgnet.Ct_consensus.phases_used;
        let latest =
          Array.fold_left
            (fun acc t -> match t with Some t -> max acc t | None -> acc)
            0.0 r.Msgnet.Ct_consensus.decision_times
        in
        total_time := !total_time +. latest
      done;
      rows :=
        [
          Table.cell_int n;
          Table.cell_int crash_count;
          Table.cell_int trials;
          Table.cell_int !violations;
          Table.cell_int !undecided_live;
          Table.cell_float (float_of_int !total_phases /. float_of_int trials);
          Table.cell_float (!total_time /. float_of_int trials);
          Table.cell_bool (!violations = 0 && !undecided_live = 0);
        ]
        :: !rows)
    [ (3, 0); (3, 1); (5, 2); (7, 3); (9, 4) ];
  {
    Table.id = "E16";
    title = "classic failure-detector consensus (Secs. 6-7 context)";
    claim =
      "Chandra–Toueg: with heartbeats giving eventual accuracy and a \
       correct majority, rotating-coordinator consensus terminates and \
       agrees — the 'detector as helpful augmentation' view the RRFD \
       framework contrasts itself with";
    header =
      [
        "n"; "crashes"; "trials"; "violations"; "undecided"; "avg-phases";
        "avg-time"; "ok";
      ];
    rows = List.rev !rows;
    notes =
      [
        "avg-time is virtual time to the last decision; crashes at random \
         times ≤ 50";
      ];
    counters = [];
  }
