type closure_result = {
  simulated : Pset.t array;
  underlying : Fault_history.t;
}

let heard n fault_sets i = Pset.add i (Pset.diff (Pset.full n) fault_sets.(i))

let two_round_closure ~n ~detector =
  let history = Fault_history.empty ~n in
  (* Copied: [d1] is read after the second query, which may reuse the
     detector's output array (see Detector.next). *)
  let d1 = Array.copy (Detector.next detector history) in
  let history = Fault_history.append history d1 in
  let d2 = Detector.next detector history in
  let underlying = Fault_history.append history d2 in
  let simulated =
    Array.init n (fun i ->
        let relayed =
          Pset.fold
            (fun x acc -> Pset.union acc (heard n d1 x))
            (heard n d2 i) Pset.empty
        in
        Pset.diff (Pset.full n) relayed)
  in
  { simulated; underlying }

let knowledge_rounds history =
  let n = Fault_history.n history in
  let rounds = Fault_history.rounds history in
  let know = Array.init n Pset.singleton in
  let someone_known_by_all () =
    let common = Array.fold_left Pset.inter (Pset.full n) know in
    not (Pset.is_empty common)
  in
  let rec go r =
    if r > rounds then None
    else begin
      let d = Fault_history.round_sets history ~round:r in
      let next =
        Array.init n (fun i ->
            Pset.fold
              (fun x acc -> Pset.union acc know.(x))
              (heard n d i) know.(i))
      in
      Array.blit next 0 know 0 n;
      if someone_known_by_all () then Some r else go (r + 1)
    end
  in
  go 1

let known_by_all_observed ~n ~detector ~max_rounds =
  let rec materialise history r =
    if r > max_rounds then history
    else
      materialise (Fault_history.append history (Detector.next detector history)) (r + 1)
  in
  let history = materialise (Fault_history.empty ~n) 1 in
  (knowledge_rounds history, history)
