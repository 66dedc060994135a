(* E18 — the Section-7 program: a new algorithm developed inside the RRFD
   framework.  Consensus under an eventually-stable RRFD (divergent
   candidate rounds until a "GST" round, snapshot-style adopt-commit rounds
   throughout): safe always, live one phase after stabilisation. *)

let run ~seed ?(trials = 300) () =
  let rng = Dsim.Rng.create seed in
  let rows = ref [] in
  let work = ref [] in
  List.iter
    (fun (n, stabilize_at) ->
      let f = n - 1 in
      let violations = ref 0 and late = ref 0 and max_rounds_used = ref 0 in
      let horizon = Rrfd.Phased_consensus.rounds_needed ~stabilize_at in
      for _ = 1 to trials do
        let trial_rng = Dsim.Rng.split rng in
        let inputs =
          Array.init n (fun _ -> 100 + Dsim.Rng.int trial_rng 3)
        in
        let ex =
          Protocols.Catalog.run_engine
            (Protocols.Catalog.find_exn "phased-consensus")
            ~inputs
            ~check:(Rrfd.Phased_consensus.predicate ~f ~stabilize_at)
            ~max_rounds:horizon ~n ~f
            ~detector:
              (Rrfd.Phased_consensus.detector trial_rng ~n ~f ~stabilize_at)
            ()
        in
        max_rounds_used := max !max_rounds_used ex.Rrfd.Substrate.rounds_used;
        work := ex.Rrfd.Substrate.counters :: !work;
        (match
           Tasks.Agreement.check ~k:1 ~inputs ex.Rrfd.Substrate.decisions
         with
        | None -> ()
        | Some _ -> incr violations);
        if ex.Rrfd.Substrate.rounds_used > horizon then incr late
      done;
      rows :=
        [
          Table.cell_int n;
          Table.cell_int stabilize_at;
          Table.cell_int horizon;
          Table.cell_int trials;
          Table.cell_int !violations;
          Table.cell_int !max_rounds_used;
          Table.cell_bool (!violations = 0 && !late = 0);
        ]
        :: !rows)
    [ (3, 1); (3, 7); (6, 1); (6, 4); (6, 10); (12, 7) ];
  {
    Table.id = "E18";
    title = "a new RRFD-native algorithm: phased consensus with eventual stability";
    claim =
      "Sec. 7's program ('we advocate using these models to develop real \
       algorithms'): mixing equation-(5)-after-GST candidate rounds with \
       snapshot adopt-commit rounds yields wait-free consensus — safe \
       under full pre-GST chaos, deciding within one phase of \
       stabilisation";
    header =
      [ "n"; "GST-round"; "horizon"; "trials"; "violations"; "max-rounds"; "ok" ];
    rows = List.rev !rows;
    notes =
      [
        "horizon = 3·(⌈(GST−1)/3⌉+1) rounds, the guaranteed decision point; \
         f = n−1 (wait-free)";
      ];
    counters = Table.counter_stats (Array.of_list (List.rev !work));
  }
