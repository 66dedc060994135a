(* Theorems 4.1 and 4.3: the synchronous-from-asynchronous simulations. *)

module Pset = Rrfd.Pset

let omission_budget () =
  Alcotest.(check int) "⌊7/2⌋" 3 (Rrfd.Sim_omission.budget ~f:7 ~k:2);
  Alcotest.(check int) "⌊6/3⌋" 2 (Rrfd.Sim_omission.budget ~f:6 ~k:3);
  Alcotest.check_raises "f < k rejected"
    (Invalid_argument "Sim_omission.budget: need f ≥ k > 0") (fun () ->
      ignore (Rrfd.Sim_omission.budget ~f:1 ~k:2))

let omission_simulation_property =
  QCheck.Test.make
    ~name:"Thm 4.1: snapshot histories with k failures stay within omission-f"
    ~count:400
    (Test_support.sized_seed_plus ~min_n:3 ~max_n:12
       QCheck.(pair (Test_support.int_range 1 3) (Test_support.int_range 1 3)))
    (fun (n, seed, (k_raw, mult)) ->
      let k = 1 + (k_raw mod (n - 1)) in
      let f = min (n - 1) (k * mult) in
      if f < k then true
      else begin
        let rng = Test_support.rng_of seed in
        let inputs = Array.init n Fun.id in
        let result =
          Rrfd.Sim_omission.simulate ~n ~f ~k
            ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
            ~detector:(Rrfd.Detector_gen.iis rng ~n ~f:k)
            ()
        in
        match result.Rrfd.Sim_omission.omission_violation with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d k=%d: %s" n f k reason
      end)

let run_crash_sim ~n ~k ~sync_rounds ~seed =
  let rng = Test_support.rng_of seed in
  let inputs = Array.init n (fun i -> 100 + i) in
  let sync = Syncnet.Flood.min_flood ~inputs ~horizon:sync_rounds in
  let algorithm = Rrfd.Sim_crash.algorithm ~sync in
  let detector = Rrfd.Detector_gen.iis rng ~n ~f:k in
  let states, _async_history =
    Rrfd.Engine.states_after ~n
      ~rounds:(Rrfd.Sim_crash.async_rounds ~sync_rounds)
      ~algorithm ~detector ()
  in
  (states, inputs, algorithm)

let crash_simulation_small () =
  let states, _, _ = run_crash_sim ~n:4 ~k:1 ~sync_rounds:3 ~seed:42 in
  Array.iter
    (fun s ->
      Alcotest.(check int) "three simulated rounds" 3
        (Rrfd.Sim_crash.sync_rounds_completed s);
      Alcotest.(check int) "no missing witnesses" 0
        (Rrfd.Sim_crash.missing_witnesses s))
    states;
  Alcotest.(check (option string)) "simulated history is a crash history" None
    (Rrfd.Sim_crash.check_simulated ~f:3 ~k:1 states)

let crash_simulation_property =
  QCheck.Test.make
    ~name:
      "Thm 4.3: 3k async rounds simulate ⌊f/k⌋ synchronous crash rounds"
    ~count:300
    (Test_support.sized_seed_plus ~min_n:3 ~max_n:10
       (Test_support.int_range 1 2))
    (fun (n, seed, k_raw) ->
      let k = 1 + (k_raw mod (n - 2)) in
      let sync_rounds = 2 in
      let f = k * sync_rounds in
      let states, _, _ = run_crash_sim ~n ~k ~sync_rounds ~seed in
      let missing =
        Array.fold_left
          (fun acc s -> acc + Rrfd.Sim_crash.missing_witnesses s)
          0 states
      in
      if missing > 0 then
        QCheck.Test.fail_reportf "missing witnesses: %d" missing
      else
        match Rrfd.Sim_crash.check_simulated ~f ~k states with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d k=%d: %s" n k reason)

let crash_simulation_preserves_flooding =
  (* Flooding for R simulated rounds with c committed crashes yields at most
     ⌊c/R⌋ + 1 distinct decisions — one extra value per full crash chain.
     The simulation commits at most k = 1 crash per round, so this is the
     Corollary 4.4 shape: R rounds under a k-failure asynchronous adversary
     behave like an R-round synchronous crash execution. *)
  QCheck.Test.make
    ~name:"simulated flooding obeys the ⌊c/R⌋+1 agreement bound (Cor 4.4 shape)"
    ~count:200
    (Test_support.sized_seed ~min_n:4 ~max_n:9 ())
    (fun (n, seed) ->
      let k = 1 in
      let sync_rounds = 3 in
      let states, inputs, algorithm = run_crash_sim ~n ~k ~sync_rounds ~seed in
      let decisions = Array.map algorithm.Rrfd.Algorithm.decide states in
      let history = Rrfd.Sim_crash.simulated_history states in
      let crashes =
        Pset.cardinal (Rrfd.Fault_history.cumulative_union history)
      in
      let bound = (crashes / sync_rounds) + 1 in
      let crashed =
        Array.to_list states
        |> List.mapi (fun i s -> (i, Rrfd.Sim_crash.self_crashed s))
        |> List.filter_map (fun (i, c) -> if c then Some i else None)
        |> Pset.of_list
      in
      match
        Agreement_check.kset ~allow_undecided:crashed ~k:bound ~inputs decisions
      with
      | None -> true
      | Some reason ->
        QCheck.Test.fail_reportf "n=%d crashes=%d bound=%d: %s" n crashes bound
          reason)

let tests =
  [
    Alcotest.test_case "omission budget" `Quick omission_budget;
    Alcotest.test_case "crash simulation, small run" `Quick crash_simulation_small;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        omission_simulation_property;
        crash_simulation_property;
        crash_simulation_preserves_flooding;
      ]
