(* E15 — item 4's substrate citation [22]: SWMR atomic registers from
   asynchronous message passing with a correct majority (ABD). *)

let run ~seed ?(trials = 150) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  List.iter
    (fun n ->
      let f = (n - 1) / 2 in
      let violations = ref 0 and ops = ref 0 and messages = ref 0 in
      for t = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let sim = Dsim.Sim.create ~seed:(seed + t) () in
        let reg =
          Msgnet.Abd.create ~sim ~n ~f ~writer:0 ~min_delay:1.0 ~max_delay:15.0 ()
        in
        let rec writes k () =
          if k < 4 then
            Msgnet.Abd.write reg ~value:(10 + k) ~on_done:(fun () ->
                Dsim.Sim.schedule sim
                  ~delay:(Dsim.Rng.float trial_rng 8.0)
                  (fun _ -> writes (k + 1) ()))
        in
        writes 0 ();
        for _ = 1 to 6 do
          let proc = 1 + Dsim.Rng.int trial_rng (n - 1) in
          Dsim.Sim.schedule sim
            ~delay:(Dsim.Rng.float trial_rng 80.0)
            (fun _ -> Msgnet.Abd.read reg ~proc ~on_done:(fun _ -> ()))
        done;
        let crash_count = Dsim.Rng.int trial_rng (f + 1) in
        List.iter
          (fun v ->
            Dsim.Sim.schedule sim
              ~delay:(Dsim.Rng.float trial_rng 60.0)
              (fun _ -> Msgnet.Abd.crash reg (v + 1)))
          (Dsim.Rng.sample_without_replacement trial_rng crash_count (n - 1));
        Dsim.Sim.run sim;
        let events = Msgnet.Abd.History.events reg in
        ops := !ops + List.length events;
        messages := !messages + 0;
        if Msgnet.Abd.History.check_atomic events <> None then incr violations
      done;
      rows :=
        [
          Table.cell_int n;
          Table.cell_int f;
          Table.cell_int trials;
          Table.cell_int !violations;
          Table.cell_float (float_of_int !ops /. float_of_int trials);
          Table.cell_bool (!violations = 0);
        ]
        :: !rows)
    [ 3; 5; 7; 9 ];
  {
    Table.id = "E15";
    title = "atomic registers from message passing (ABD, item 4's [22])";
    claim =
      "Attiya–Bar-Noy–Dolev: with 2f < n, majority-quorum write and \
       query+write-back read give a SWMR atomic register over asynchronous \
       message passing — all operation histories linearize";
    header = [ "n"; "f"; "trials"; "atomicity-viol"; "ops/trial"; "ok" ];
    rows = List.rev !rows;
    notes =
      [ "each trial: 4 chained writes, 6 reads at random times, ≤ f crashes" ];
    counters = [];
  }
