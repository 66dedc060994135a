(* E13 — the submodel lattice of Section 2, checked exhaustively over every
   two-round history of a three-process system. *)

let run ~seed ?(trials = 0) () =
  ignore seed;
  ignore trials;
  let open Rrfd.Predicate in
  let predicates =
    [
      ("crash(1)", crash ~f:1);
      ("omission(1)", omission ~f:1);
      ("snapshot(1)", snapshot ~f:1);
      ("shm(1)", shared_memory ~f:1);
      ("async(1)", async_resilient ~f:1);
      ("kset(1)", k_set ~k:1);
      ("kset(2)", k_set ~k:2);
      ("eq5", identical_views);
      ("detS", detector_s);
    ]
  in
  (* Expected implication matrix at n = 3, rounds ≤ 2 (row ⇒ column). *)
  let rows =
    List.map
      (fun (name_a, a) ->
        let cells =
          List.map
            (fun (_, b) ->
              match Rrfd.Submodel.check_exhaustive ~n:3 ~rounds:2 a b with
              | Rrfd.Submodel.Implies -> "⇒"
              | Rrfd.Submodel.Counterexample _ -> "·")
            predicates
        in
        name_a :: cells)
      predicates
  in
  (* Sanity anchors from the paper: crash ⊂ omission explicitly (item 2),
     snapshot ⊂ shm ⊂ async, eq5 ⊂ kset(1) ⊂ kset(2). *)
  let lookup r c =
    let row = List.nth rows r in
    List.nth row (c + 1)
  in
  let anchors_ok =
    lookup 0 1 = "⇒" (* crash ⇒ omission *)
    && lookup 2 3 = "⇒" (* snapshot ⇒ shm *)
    && lookup 3 4 = "⇒" (* shm ⇒ async *)
    && lookup 7 5 = "⇒" (* eq5 ⇒ kset(1) *)
    && lookup 5 6 = "⇒" (* kset(1) ⇒ kset(2) *)
    && lookup 1 0 = "·" (* omission ⇏ crash *)
    && lookup 4 3 = "·" (* async ⇏ shm *)
  in
  let rows = rows @ [ [ "anchors"; Table.cell_bool anchors_ok ] ] in
  {
    Table.id = "E13";
    title = "the submodel lattice (Section 2), exhaustive at n = 3";
    claim =
      "Sec. 2: models compare by predicate implication — crash ⊂ omission \
       (explicit in item 2), snapshot ⊂ shm ⊂ async message passing, \
       eq(5) ⊂ 1-set ⊂ 2-set";
    header = "P_A ⇒ P_B" :: List.map fst predicates;
    rows;
    notes =
      [
        "⇒ = implication over every ≤2-round 3-process history; · = \
         counterexample found";
      ];
    counters = [];
  }
