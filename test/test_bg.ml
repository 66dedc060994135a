(* The BG simulation: k+1 wait-free simulators drive an n-process
   k-resilient execution. *)

let flood ~n ~rounds = Syncnet.Flood.min_flood ~inputs:(Tasks.Inputs.distinct n) ~horizon:rounds

let crash_free_simulates_everything () =
  let n = 5 and k = 2 and rounds = 3 in
  let rng = Dsim.Rng.create 5 in
  let o =
    Rrfd.Bg_simulation.simulate ~rng ~simulators:(k + 1) ~n ~k ~rounds
      ~algorithm:(flood ~n ~rounds) ()
  in
  Alcotest.(check int) "no wedges" 0 o.Rrfd.Bg_simulation.wedged_instances;
  Alcotest.(check int) "nobody stalled" 0 o.Rrfd.Bg_simulation.stalled_processes;
  Array.iter
    (fun c -> Alcotest.(check int) "all rounds" rounds c)
    o.Rrfd.Bg_simulation.completed;
  Alcotest.(check bool) "fault sets ≤ k" true o.Rrfd.Bg_simulation.fault_set_sizes_ok;
  Array.iter
    (fun d -> Alcotest.(check bool) "decided" true (Option.is_some d))
    o.Rrfd.Bg_simulation.decisions

let one_simulator_suffices () =
  let n = 4 and k = 1 and rounds = 2 in
  let rng = Dsim.Rng.create 9 in
  let o =
    Rrfd.Bg_simulation.simulate ~rng ~simulators:1 ~n ~k ~rounds
      ~algorithm:(flood ~n ~rounds) ()
  in
  Alcotest.(check int) "nobody stalled" 0 o.Rrfd.Bg_simulation.stalled_processes

let simulation_property =
  QCheck.Test.make
    ~name:
      "BG: ≤k simulator crashes stall ≤k simulated processes, fault sets ≤ k"
    ~count:300
    QCheck.(
      triple (Test_support.int_range 3 8) (int_bound 100000)
        (Test_support.int_range 1 3))
    (fun (n, seed, k_raw) ->
      let k = 1 + (k_raw mod (n - 1)) in
      let rounds = 3 in
      let rng = Dsim.Rng.create seed in
      let simulators = k + 1 in
      let crash_count = Dsim.Rng.int rng (min k simulators) in
      let crashes =
        Dsim.Rng.sample_without_replacement rng crash_count simulators
        |> List.map (fun s -> (s, Dsim.Rng.int rng 60))
      in
      let o =
        Rrfd.Bg_simulation.simulate ~rng ~simulators ~crashes ~n ~k ~rounds
          ~algorithm:(flood ~n ~rounds) ()
      in
      if not o.Rrfd.Bg_simulation.fault_set_sizes_ok then
        QCheck.Test.fail_reportf "a receive set missed more than k"
      else if o.Rrfd.Bg_simulation.stalled_processes > crash_count then
        QCheck.Test.fail_reportf "n=%d k=%d: %d crashes stalled %d processes"
          n k crash_count o.Rrfd.Bg_simulation.stalled_processes
      else begin
        (* completers of a full flooding run hold valid decisions *)
        let inputs = Tasks.Inputs.distinct n in
        Array.for_all2
          (fun completed d ->
            if completed = rounds then
              match d with
              | Some v -> Array.exists (Int.equal v) inputs
              | None -> false
            else true)
          o.Rrfd.Bg_simulation.completed o.Rrfd.Bg_simulation.decisions
      end)

let wedge_really_happens =
  (* Over many seeds with an aggressive crash, at least one run must wedge
     an instance mid-doorway — the phenomenon the BG machinery is about. *)
  QCheck.Test.make ~name:"BG: doorway wedges occur under crashes" ~count:1
    QCheck.unit
    (fun () ->
      let wedged = ref 0 in
      for seed = 0 to 80 do
        let n = 4 and k = 1 and rounds = 2 in
        let rng = Dsim.Rng.create seed in
        let o =
          Rrfd.Bg_simulation.simulate ~rng ~simulators:2
            ~crashes:[ (0, 3 + (seed mod 10)) ] ~n ~k ~rounds
            ~algorithm:(flood ~n ~rounds) ()
        in
        wedged := !wedged + o.Rrfd.Bg_simulation.wedged_instances
      done;
      if !wedged = 0 then QCheck.Test.fail_reportf "no wedge in 81 runs"
      else true)

let tests =
  [
    Alcotest.test_case "crash-free full simulation" `Quick
      crash_free_simulates_everything;
    Alcotest.test_case "single simulator" `Quick one_simulator_suffices;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ simulation_property; wedge_really_happens ]
