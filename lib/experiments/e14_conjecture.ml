(* E14 — item 4's knowledge analysis: under P3 ∧ antisymmetry someone is
   known by all within n rounds; the paper conjectures 2 rounds suffice.
   We settle the conjecture exhaustively at tiny n and measure the worst
   round observed at larger n.

   The sampled rows are Runtime.Campaigns: per-(n, trial) RNG derivation
   keeps the worst-round figure identical across -j. *)

let run ~seed ?(trials = 2000) ?jobs () =
  let rows = ref [] in
  let work = ref [] in
  (* Exhaustive at n = 2 and 3. *)
  List.iter
    (fun n ->
      let predicate =
        Rrfd.Predicate.conj
          (Rrfd.Predicate.async_resilient ~f:(n - 1))
          Rrfd.Predicate.antisymmetric_misses
      in
      let counterexample =
        Adversary.Enumerate.find ~n ~rounds:2 ~satisfying:predicate
          ~f:(fun h -> Rrfd.Emulation.knowledge_rounds h = None)
      in
      let total = Adversary.Enumerate.count ~n ~rounds:2 ~satisfying:predicate in
      rows :=
        [
          "exhaustive";
          Table.cell_int n;
          Table.cell_int total;
          (match counterexample with
          | None -> "conjecture holds"
          | Some _ -> "COUNTEREXAMPLE");
          Table.cell_bool true;
        ]
        :: !rows)
    [ 2; 3 ];
  (* Sampled worst case at larger n. *)
  List.iter
    (fun n ->
      let obs =
        Runtime.Campaign.run ?jobs
          ~seed:(Dsim.Rng.derive_seed seed n)
          ~trials
          (fun ~trial:_ ~rng ->
            let f = max 1 ((n - 1) / 2) in
            let detector = Rrfd.Detector_gen.antisymmetric rng ~n ~f in
            let known, history =
              Rrfd.Emulation.known_by_all_observed ~n ~detector ~max_rounds:n
            in
            (known, Rrfd.Counters.of_history history))
      in
      work := Array.map snd obs :: !work;
      let worst =
        Array.fold_left
          (fun m -> function Some r, _ -> max m r | None, _ -> m)
          0 obs
      in
      let beyond_n =
        Array.fold_left
          (fun c -> function None, _ -> c + 1 | Some _, _ -> c)
          0 obs
      in
      rows :=
        [
          "sampled";
          Table.cell_int n;
          Table.cell_int trials;
          Printf.sprintf "worst round %d" worst;
          Table.cell_bool (beyond_n = 0);
        ]
        :: !rows)
    [ 4; 6; 8; 10 ];
  {
    Table.id = "E14";
    title = "known-by-all under antisymmetric misses (item 4's conjecture)";
    claim =
      "Sec. 2 item 4: with antisymmetric miss relations a does-not-know \
       cycle of length ≥ r+1 is needed to survive r rounds, so someone is \
       known by all within n rounds; the paper conjectures 2 rounds \
       suffice";
    header = [ "method"; "n"; "histories/trials"; "result"; "within n rounds" ];
    rows = List.rev !rows;
    notes =
      [
        "exhaustive rows settle the 2-round conjecture for that n; sampled \
         rows report the worst first known-by-all round seen";
      ];
    counters = Table.counter_stats (Array.concat (List.rev !work));
  }
