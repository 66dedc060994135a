(* E19 — the BG simulation, the machinery behind the asynchronous
   impossibility results Section 4 invokes: k+1 wait-free simulators run a
   k-resilient n-process execution; each simulator crash wedges at most
   one safe-agreement doorway, stalling at most one simulated process. *)

let run ~seed ?(trials = 200) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  List.iter
    (fun (n, k, crash_count) ->
      let rounds = 3 in
      let simulators = k + 1 in
      let size_bad = ref 0 and stall_bad = ref 0 in
      let total_wedged = ref 0 and total_stalled = ref 0 in
      for _ = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let crashes =
          Dsim.Rng.sample_without_replacement trial_rng crash_count simulators
          |> List.map (fun s -> (s, Dsim.Rng.int trial_rng 80))
        in
        let o =
          Rrfd.Bg_simulation.simulate ~rng:trial_rng ~simulators ~crashes ~n
            ~k ~rounds
            ~algorithm:
              (Syncnet.Flood.min_flood ~inputs:(Tasks.Inputs.distinct n)
                 ~horizon:rounds)
            ()
        in
        if not o.Rrfd.Bg_simulation.fault_set_sizes_ok then incr size_bad;
        if o.Rrfd.Bg_simulation.stalled_processes > crash_count then
          incr stall_bad;
        total_wedged := !total_wedged + o.Rrfd.Bg_simulation.wedged_instances;
        total_stalled := !total_stalled + o.Rrfd.Bg_simulation.stalled_processes
      done;
      rows :=
        [
          Table.cell_int n;
          Table.cell_int k;
          Table.cell_int simulators;
          Table.cell_int crash_count;
          Table.cell_int trials;
          Table.cell_int !size_bad;
          Table.cell_int !stall_bad;
          Table.cell_float (float_of_int !total_wedged /. float_of_int trials);
          Table.cell_float (float_of_int !total_stalled /. float_of_int trials);
          Table.cell_bool (!size_bad = 0 && !stall_bad = 0);
        ]
        :: !rows)
    [ (4, 1, 0); (4, 1, 1); (6, 2, 2); (8, 3, 3); (8, 2, 1) ];
  {
    Table.id = "E19";
    title = "the BG simulation: wait-free simulators, k-resilient executions";
    claim =
      "Borowsky–Gafni ([4]/[9], the engine of Sec. 4's impossibility \
       transfer): k+1 simulators of which k may crash produce a legal \
       k-resilient n-process execution — every receive set misses ≤ k, \
       and c simulator crashes stall ≤ c simulated processes";
    header =
      [
        "n"; "k"; "sims"; "crashes"; "trials"; "size-viol"; "stall-viol";
        "avg-wedged"; "avg-stalled"; "ok";
      ];
    rows = List.rev !rows;
    notes =
      [
        "simulated protocol: 3-round min-flooding; safe-agreement doorways \
         modelled at begin/finish granularity (register-level protocol in \
         shm.Safe_agreement)";
      ];
    counters = [];
  }
