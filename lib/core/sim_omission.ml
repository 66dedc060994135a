let budget ~f ~k =
  if k <= 0 || f < k then invalid_arg "Sim_omission.budget: need f ≥ k > 0";
  f / k

type 'out result = {
  outcome : 'out Substrate.execution;
  omission_violation : string option;
}

let simulate ~n ~f ~k ~algorithm ~detector () =
  let rounds = budget ~f ~k in
  let outcome =
    Engine.run ~n ~max_rounds:rounds ~check:(Predicate.snapshot ~f:k)
      ~stop_when_decided:false ~algorithm ~detector ()
  in
  let omission_violation =
    match outcome.Substrate.violation with
    | Some v -> Some ("asynchronous side broke its own predicate: " ^ v)
    | None -> Predicate.explain (Predicate.omission ~f) outcome.Substrate.induced
  in
  { outcome; omission_violation }
