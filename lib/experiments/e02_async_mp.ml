(* E2 — item 3: the buffered/discarding round layer over a real
   asynchronous network implements predicate (3), and two rounds of the
   weaker system B implement one round of system A. *)

let run ~seed ?(trials = 100) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  (* Part 1: the round layer. *)
  List.iter
    (fun (n, f) ->
      let p3_bad = ref 0 and stalled = ref 0 in
      for t = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let crash_count = Dsim.Rng.int trial_rng (f + 1) in
        let crashes =
          Dsim.Rng.sample_without_replacement trial_rng crash_count n
          |> List.map (fun p -> (p, Dsim.Rng.float trial_rng 40.0))
        in
        let inputs = Tasks.Inputs.distinct n in
        let result =
          Msgnet.Round_layer.run ~seed:(seed + t) ~crashes ~n ~f ~rounds:4
            ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
            ()
        in
        if
          not
            (Rrfd.Predicate.holds
               (Rrfd.Predicate.async_resilient ~f)
               result.Msgnet.Round_layer.induced)
        then incr p3_bad;
        Array.iteri
          (fun i completed ->
            if
              (not (Rrfd.Pset.mem i result.Msgnet.Round_layer.crashed))
              && completed < 4
            then incr stalled)
          result.Msgnet.Round_layer.completed
      done;
      rows :=
        [
          "round-layer";
          Table.cell_int n;
          Printf.sprintf "f=%d" f;
          Table.cell_int trials;
          Table.cell_int !p3_bad;
          Table.cell_int !stalled;
          Table.cell_bool (!p3_bad = 0 && !stalled = 0);
        ]
        :: !rows)
    [ (4, 1); (8, 3); (16, 7) ];
  (* Part 2: B implements A (2t < n, f < t). *)
  List.iter
    (fun n ->
      let t_param = (n - 1) / 2 in
      let f = t_param - 1 in
      if f >= 1 then begin
        let bad = ref 0 in
        for _ = 1 to trials do
          let trial_rng = Dsim.Rng.split rng in
          let detector = Rrfd.Detector_gen.async_mixed trial_rng ~n ~f ~t:t_param in
          let r = Rrfd.Emulation.two_round_closure ~n ~detector in
          let h = Rrfd.Fault_history.of_rounds ~n [ r.Rrfd.Emulation.simulated ] in
          if not (Rrfd.Predicate.holds (Rrfd.Predicate.async_resilient ~f) h)
          then incr bad
        done;
        rows :=
          [
            "B⇒A (2 rounds)";
            Table.cell_int n;
            Printf.sprintf "f=%d,t=%d" f t_param;
            Table.cell_int trials;
            Table.cell_int !bad;
            "-";
            Table.cell_bool (!bad = 0);
          ]
          :: !rows
      end)
    [ 7; 11; 15 ];
  {
    Table.id = "E2";
    title = "asynchronous message passing as an RRFD (item 3)";
    claim =
      "Sec. 2 item 3: waiting for n−f round-tagged messages yields \
       |D(i,r)| ≤ f and never blocks live processes; two rounds of system B \
       implement a round of system A";
    header = [ "construction"; "n"; "params"; "trials"; "violations"; "stalls"; "ok" ];
    rows = List.rev !rows;
    notes = [];
    counters = [];
  }
