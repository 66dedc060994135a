(* E4 — item 5: real immediate-snapshot executions generate exactly the
   atomic-snapshot RRFD predicate. *)

let run ~seed ?(trials = 200) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  List.iter
    (fun n ->
      let view_bad = ref 0 and pred_bad = ref 0 and total_steps = ref 0 in
      for _ = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let r =
          Shm.Immediate_snapshot.run_once ~n
            ~schedule:(Shm.Exec.Random trial_rng)
        in
        total_steps := !total_steps + r.Shm.Immediate_snapshot.steps;
        if
          Shm.Immediate_snapshot.check_views r.Shm.Immediate_snapshot.views
          <> None
        then incr view_bad;
        let h =
          Rrfd.Fault_history.of_rounds ~n
            [ Shm.Immediate_snapshot.to_fault_sets r.Shm.Immediate_snapshot.views ]
        in
        if not (Rrfd.Predicate.holds (Rrfd.Predicate.snapshot ~f:(n - 1)) h)
        then incr pred_bad
      done;
      rows :=
        [
          Table.cell_int n;
          Table.cell_int trials;
          Table.cell_int !view_bad;
          Table.cell_int !pred_bad;
          Table.cell_float (float_of_int !total_steps /. float_of_int trials);
          Table.cell_bool (!view_bad = 0 && !pred_bad = 0);
        ]
        :: !rows)
    [ 2; 3; 4; 6; 8; 12 ];
  {
    Table.id = "E4";
    title = "atomic snapshot / IIS as an RRFD (item 5)";
    claim =
      "Sec. 2 item 5: one-shot immediate snapshots give views with \
       self-inclusion, comparability and immediacy, i.e. D(i,r) = S − V_i \
       satisfies predicate (3) ∧ containment";
    header = [ "n"; "trials"; "view-viol"; "pred-viol"; "avg-steps"; "ok" ];
    rows = List.rev !rows;
    notes =
      [ "avg-steps = register operations per one-shot immediate snapshot" ];
    counters = [];
  }
