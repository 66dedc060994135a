(* E3 — item 4: shared memory ↔ predicates (3)∧(4); 2 message-passing
   rounds implement one shared-memory round when 2f < n. *)

let run ~seed ?(trials = 200) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  List.iter
    (fun n ->
      let f = (n - 1) / 2 in
      let closure_bad = ref 0 in
      for _ = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let detector = Rrfd.Detector_gen.async trial_rng ~n ~f in
        let r = Rrfd.Emulation.two_round_closure ~n ~detector in
        let h = Rrfd.Fault_history.of_rounds ~n [ r.Rrfd.Emulation.simulated ] in
        if not (Rrfd.Predicate.holds (Rrfd.Predicate.shared_memory ~f) h) then
          incr closure_bad
      done;
      (* the shm generator's rounds satisfy both ingredients *)
      let gen_bad = ref 0 in
      for _ = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let detector = Rrfd.Detector_gen.shared_memory trial_rng ~n ~f in
        let rec build h r =
          if r > 3 then h
          else build (Rrfd.Fault_history.append h (Rrfd.Detector.next detector h)) (r + 1)
        in
        let h = build (Rrfd.Fault_history.empty ~n) 1 in
        if not (Rrfd.Predicate.holds (Rrfd.Predicate.shared_memory ~f) h) then
          incr gen_bad
      done;
      rows :=
        [
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_int trials;
          Table.cell_int !closure_bad;
          Table.cell_int !gen_bad;
          Table.cell_bool (!closure_bad = 0 && !gen_bad = 0);
        ]
        :: !rows)
    [ 3; 5; 9; 15 ];
  {
    Table.id = "E3";
    title = "SWMR shared memory as an RRFD (item 4)";
    claim =
      "Sec. 2 item 4: shared-memory rounds satisfy (3)∧(4); with 2f<n, two \
       async message-passing rounds (heard-of closure) implement one \
       shared-memory round";
    header = [ "n"; "f"; "trials"; "closure-viol"; "model-viol"; "ok" ];
    rows = List.rev !rows;
    notes = [ "closure = two-round emulation from async MP; model = native shm rounds" ];
    counters = [];
  }
