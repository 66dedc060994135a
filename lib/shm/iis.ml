let one_round rng ~n =
  let result =
    Immediate_snapshot.run_once ~n ~schedule:(Exec.Random (Dsim.Rng.split rng))
  in
  Immediate_snapshot.to_fault_sets result.Immediate_snapshot.views

let detector rng ~n =
  Rrfd.Detector.make ~name:(Printf.sprintf "iis(n=%d)" n) (fun _history ->
      one_round rng ~n)

let history rng ~n ~rounds =
  let rec go h r =
    if r > rounds then h
    else go (Rrfd.Fault_history.append h (one_round rng ~n)) (r + 1)
  in
  go (Rrfd.Fault_history.empty ~n) 1
