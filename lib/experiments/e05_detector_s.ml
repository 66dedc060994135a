(* E5 — item 6: the detector-S RRFD is the |∪∪D| < n predicate, i.e.
   omission with f = n − 1, reducing wait-free S-consensus to item-1
   consensus by predicate manipulation. *)

let run ~seed ?(trials = 300) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  List.iter
    (fun n ->
      (* Sampled both directions of the equivalence. *)
      let wait_free_omission = Rrfd.Predicate.omission ~f:(n - 1) in
      let s_to_omission =
        Rrfd.Submodel.check_sampled (Dsim.Rng.split rng) ~samples:trials
          ~rounds:4
          ~gen:(fun r -> Rrfd.Detector_gen.detector_s r ~n)
          ~n Rrfd.Predicate.detector_s
          (Rrfd.Predicate.make ~name:"|∪∪D|<n" ~doc:"" (fun h ->
               if
                 Rrfd.Pset.cardinal (Rrfd.Fault_history.cumulative_union h)
                 < Rrfd.Fault_history.n h
               then None
               else Some "covers all"))
      in
      (* The omission predicate additionally forbids self-suspicion, which
         detector-S histories may exhibit; the cumulative-union clause is
         the operative one.  We also check the omission generator's
         histories satisfy detector-S. *)
      let omission_to_s =
        Rrfd.Submodel.check_sampled (Dsim.Rng.split rng) ~samples:trials
          ~rounds:4
          ~gen:(fun r -> Rrfd.Detector_gen.omission r ~n ~f:(n - 1))
          ~n wait_free_omission Rrfd.Predicate.detector_s
      in
      let verdict = function
        | Rrfd.Submodel.Implies -> true
        | Rrfd.Submodel.Counterexample _ -> false
      in
      rows :=
        [
          Table.cell_int n;
          Table.cell_int trials;
          Table.cell_bool (verdict s_to_omission);
          Table.cell_bool (verdict omission_to_s);
          Table.cell_bool (verdict s_to_omission && verdict omission_to_s);
        ]
        :: !rows)
    [ 3; 5; 8; 12 ];
  {
    Table.id = "E5";
    title = "failure detector S as an RRFD (item 6)";
    claim =
      "Sec. 2 item 6: ∃p_j never suspected ⟺ |∪_r ∪_i D(i,r)| < n — the \
       RRFD of item 1 with f = n−1, so wait-free consensus with S reduces \
       to synchronous omission consensus";
    header = [ "n"; "samples"; "S⇒|∪∪D|<n"; "omission(n−1)⇒S"; "ok" ];
    rows = List.rev !rows;
    notes = [];
    counters = [];
  }
