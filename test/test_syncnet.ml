(* The synchronous substrate: fault patterns, induced histories (items 1-2),
   and the flooding baselines. *)

module Pset = Rrfd.Pset

let s = Pset.of_list

let pattern_accessors () =
  let p = Syncnet.Faults.crash ~n:4 [ (1, 2, s [ 0 ]) ] in
  Alcotest.(check bool) "faulty" true
    (Pset.equal (Syncnet.Faults.faulty_processes p) (s [ 1 ]));
  Alcotest.(check bool) "not crashed before its round" true
    (Pset.is_empty (Syncnet.Faults.crashed_before p ~round:2));
  Alcotest.(check bool) "crashed after" true
    (Pset.equal (Syncnet.Faults.crashed_before p ~round:3) (s [ 1 ]));
  Alcotest.(check bool) "full delivery before crash" true
    (Syncnet.Faults.delivered p ~round:1 ~sender:1 ~receiver:3);
  Alcotest.(check bool) "partial delivery at crash round" false
    (Syncnet.Faults.delivered p ~round:2 ~sender:1 ~receiver:3);
  Alcotest.(check bool) "survivor receives at crash round" true
    (Syncnet.Faults.delivered p ~round:2 ~sender:1 ~receiver:0);
  Alcotest.(check bool) "nothing after crash" false
    (Syncnet.Faults.delivered p ~round:3 ~sender:1 ~receiver:0)

let floodset_example () =
  (* n = 4, f = 1: p3 crashes at round 1 revealing its (minimal) value only
     to p0; flooding needs the second round to spread it. *)
  let inputs = [| 5; 6; 7; 1 |] in
  let pattern = Syncnet.Faults.crash ~n:4 [ (3, 1, s [ 0 ]) ] in
  let result =
    Syncnet.Sync_net.run ~n:4 ~rounds:2 ~pattern
      ~algorithm:(Syncnet.Flood.consensus ~inputs ~f:1)
      ()
  in
  Alcotest.(check (option string)) "consensus among survivors" None
    (Agreement_check.kset
       ~allow_undecided:result.Rrfd.Substrate.crashed ~k:1 ~inputs
       result.Rrfd.Substrate.decisions);
  (* everyone alive decides 1: p0 relays it in round 2 *)
  Array.iteri
    (fun i d -> if i < 3 then Alcotest.(check (option int)) "decides 1" (Some 1) d)
    result.Rrfd.Substrate.decisions

let induced_history_matches_crash_predicate =
  QCheck.Test.make
    ~name:"E1: random crash runs induce crash-predicate histories" ~count:400
    QCheck.(
      triple (Test_support.int_range 2 12) (int_bound 100000)
        (Test_support.int_range 1 5))
    (fun (n, seed, rounds) ->
      let rng = Dsim.Rng.create seed in
      let f = Dsim.Rng.int rng n in
      let pattern = Syncnet.Faults.random_crash rng ~n ~f ~max_round:rounds in
      let inputs = Array.init n Fun.id in
      let result =
        Syncnet.Sync_net.run ~n ~rounds ~pattern ~stop_when_decided:false
          ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
          ()
      in
      match
        Rrfd.Predicate.explain (Rrfd.Predicate.crash ~f)
          result.Rrfd.Substrate.induced
      with
      | None -> true
      | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d: %s" n f reason)

let induced_history_matches_omission_predicate =
  QCheck.Test.make
    ~name:"E1: random omission runs induce omission-predicate histories"
    ~count:400
    QCheck.(
      triple (Test_support.int_range 2 12) (int_bound 100000)
        (Test_support.int_range 1 5))
    (fun (n, seed, rounds) ->
      let rng = Dsim.Rng.create seed in
      let f = Dsim.Rng.int rng n in
      let pattern = Syncnet.Faults.random_omission rng ~n ~f in
      let inputs = Array.init n Fun.id in
      let result =
        Syncnet.Sync_net.run ~n ~rounds ~pattern ~stop_when_decided:false
          ~algorithm:(Rrfd.Full_info.algorithm ~inputs)
          ()
      in
      match
        Rrfd.Predicate.explain (Rrfd.Predicate.omission ~f)
          result.Rrfd.Substrate.induced
      with
      | None -> true
      | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d: %s" n f reason)

let floodset_solves_consensus =
  QCheck.Test.make
    ~name:"FloodSet: consensus in f+1 rounds under random crash patterns"
    ~count:400
    QCheck.(pair (Test_support.int_range 2 12) (int_bound 100000))
    (fun (n, seed) ->
      let rng = Dsim.Rng.create seed in
      let f = Dsim.Rng.int rng n in
      let inputs = Array.init n (fun i -> (i * 13) mod 7) in
      let pattern = Syncnet.Faults.random_crash rng ~n ~f ~max_round:(f + 1) in
      let result =
        Syncnet.Sync_net.run ~n ~rounds:(f + 1) ~pattern
          ~algorithm:(Syncnet.Flood.consensus ~inputs ~f)
          ()
      in
      match
        Agreement_check.kset
          ~allow_undecided:result.Rrfd.Substrate.crashed ~k:1 ~inputs
          result.Rrfd.Substrate.decisions
      with
      | None -> true
      | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d: %s" n f reason)

let kset_flood_solves_kset =
  QCheck.Test.make
    ~name:"k-set flooding: ⌊f/k⌋+1 rounds suffice under crash patterns"
    ~count:400
    QCheck.(
      triple (Test_support.int_range 3 12) (int_bound 100000)
        (Test_support.int_range 1 4))
    (fun (n, seed, k_raw) ->
      let rng = Dsim.Rng.create seed in
      let k = 1 + (k_raw mod (n - 1)) in
      let f = min (n - 1) (k + Dsim.Rng.int rng n) in
      if f < k then true
      else begin
        let inputs = Array.init n Fun.id in
        let horizon = (f / k) + 1 in
        let pattern = Syncnet.Faults.random_crash rng ~n ~f ~max_round:horizon in
        let result =
          Syncnet.Sync_net.run ~n ~rounds:horizon ~pattern
            ~algorithm:(Syncnet.Flood.kset ~inputs ~f ~k)
            ()
        in
        match
          Agreement_check.kset
            ~allow_undecided:result.Rrfd.Substrate.crashed ~k ~inputs
            result.Rrfd.Substrate.decisions
        with
        | None -> true
        | Some reason -> QCheck.Test.fail_reportf "n=%d f=%d k=%d: %s" n f k reason
      end)

let tests =
  [
    Alcotest.test_case "pattern accessors" `Quick pattern_accessors;
    Alcotest.test_case "floodset worked example" `Quick floodset_example;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        induced_history_matches_crash_predicate;
        induced_history_matches_omission_predicate;
        floodset_solves_consensus;
        kset_flood_solves_kset;
      ]
