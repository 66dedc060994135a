let fold_extensions ~prefix ~rounds ~satisfying ~init ~f =
  let n = Rrfd.Fault_history.n prefix in
  if rounds < Rrfd.Fault_history.rounds prefix then
    invalid_arg "Enumerate.fold_extensions: prefix longer than target";
  let assignments = Rrfd.Submodel.round_assignments ~n in
  let rec explore acc history depth =
    if not (Rrfd.Predicate.holds satisfying history) then acc
    else if depth = rounds then f acc history
    else
      List.fold_left
        (fun acc d -> explore acc (Rrfd.Fault_history.append history d) (depth + 1))
        acc assignments
  in
  explore init prefix (Rrfd.Fault_history.rounds prefix)

let fold ~n ~rounds ~satisfying ~init ~f =
  fold_extensions ~prefix:(Rrfd.Fault_history.empty ~n) ~rounds ~satisfying ~init
    ~f

let count ~n ~rounds ~satisfying =
  fold ~n ~rounds ~satisfying ~init:0 ~f:(fun c _ -> c + 1)

let find_extension ~prefix ~rounds ~satisfying ~f =
  let exception Found of Rrfd.Fault_history.t in
  try
    fold_extensions ~prefix ~rounds ~satisfying ~init:() ~f:(fun () h ->
        if f h then raise (Found h));
    None
  with Found h -> Some h

let find ~n ~rounds ~satisfying ~f =
  find_extension ~prefix:(Rrfd.Fault_history.empty ~n) ~rounds ~satisfying ~f
