(* E26 — derived heard-of predicates, certified two-sidedly.

   Every E21 policy (plus a Byzantine one) goes through Check.Derive:
   find the strongest vocabulary predicate all its executions satisfy,
   certify upward with a fresh fuzz campaign, witness every refuted
   candidate downward, and at n = 3 replace the sampled tightness
   argument with a full enumeration of the derived space (a proof).

   Two structural gates ride on the grid:
   - the byz row runs at the same row seed as "none" and must derive the
     identical predicate with identical witnesses — lies change message
     content, never the delay schedule, so the benign projection of a
     Byzantine policy is placed at exactly the benign policy's point of
     the lattice;
   - the exhaustive rows must find an enumeration-backed separation for
     every frontier member (tight as a theorem, not a sample).

   Rows run as derivation campaigns keyed on (seed, row); the table and
   the per-row artifact field run returns are identical at any -j. *)

let fuzz_grid = E21_faultnet.grid @ [ "byz:m=2,corrupt=1" ]

let exhaustive_grid = [ "none"; "drop:p=30" ]

type row = {
  policy : string;
  mode : string;  (* "fuzz" | "exh" *)
  outcome : Check.Derive.outcome;
  row_ok : bool;
}

(* The artifact's extra field: every row's full e26-derive artifact. *)
let artifact_field rows =
  let module Json = Report.Json in
  ( "derivations",
    Json.List
      (List.map
         (fun r ->
           Json.Obj
             [
               ("policy", Json.String r.policy);
               ("mode", Json.String r.mode);
               ("artifact", Check.Derive.codec.enc r.outcome);
             ])
         rows) )

let run ~seed ?(trials = 250) ?jobs () =
  let fuzz_cfg =
    {
      Check.Derive.default_config with
      observe_trials = trials;
      certify_trials = 2 * trials;
      jobs;
    }
  in
  let exh_cfg =
    {
      fuzz_cfg with
      Check.Derive.n = 3;
      f = 1;
      rounds = 3;
      exhaustive = true;
    }
  in
  let fuzz_lat =
    match Check.Derive.lattice_for ~cfg:fuzz_cfg with
    | Ok l -> l
    | Error e -> invalid_arg ("E26: " ^ e)
  in
  let exh_lat =
    match Check.Derive.lattice_for ~cfg:exh_cfg with
    | Ok l -> l
    | Error e -> invalid_arg ("E26: " ^ e)
  in
  let derive ~lattice ~cfg ~row_seed policy =
    match
      Check.Derive.derive ~lattice
        ~cfg:{ cfg with Check.Derive.seed = row_seed }
        ~policy ()
    with
    | Ok o -> o
    | Error e -> invalid_arg ("E26: " ^ e)
  in
  (* The byz row reuses row 0's seed: same delay schedules as "none",
     so its benign projection must derive identically. *)
  let row_seed idx policy =
    if policy = "byz:m=2,corrupt=1" then Dsim.Rng.derive_seed seed 0
    else Dsim.Rng.derive_seed seed idx
  in
  let fuzz_rows =
    List.mapi
      (fun idx policy ->
        let outcome =
          derive ~lattice:fuzz_lat ~cfg:fuzz_cfg ~row_seed:(row_seed idx policy)
            policy
        in
        { policy; mode = "fuzz"; outcome; row_ok = Check.Derive.ok outcome })
      fuzz_grid
  in
  let none_outcome = (List.hd fuzz_rows).outcome in
  let fuzz_rows =
    List.map
      (fun r ->
        if r.policy <> "byz:m=2,corrupt=1" then r
        else
          let benign_matches_none =
            r.outcome.Check.Derive.sound = none_outcome.Check.Derive.sound
            && List.map
                 (fun w -> (w.Check.Derive.spec, w.Check.Derive.source))
                 r.outcome.Check.Derive.witnesses
               = List.map
                   (fun w -> (w.Check.Derive.spec, w.Check.Derive.source))
                   none_outcome.Check.Derive.witnesses
          in
          { r with row_ok = r.row_ok && benign_matches_none })
      fuzz_rows
  in
  let exh_rows =
    List.mapi
      (fun i policy ->
        let outcome =
          derive ~lattice:exh_lat ~cfg:exh_cfg
            ~row_seed:(Dsim.Rng.derive_seed seed (List.length fuzz_grid + i))
            policy
        in
        { policy; mode = "exh"; outcome; row_ok = Check.Derive.ok outcome })
      exhaustive_grid
  in
  let rows = fuzz_rows @ exh_rows in
  let cells r =
    let o = r.outcome in
    let cfg = o.Check.Derive.cfg in
    [
      r.policy;
      r.mode;
      Table.cell_int cfg.Check.Derive.n;
      Table.cell_int cfg.Check.Derive.f;
      Table.cell_int cfg.Check.Derive.observe_trials;
      Table.cell_int cfg.Check.Derive.certify_trials;
      Table.cell_int (List.length o.Check.Derive.cands);
      Table.cell_int (List.length o.Check.Derive.sound);
      String.concat "+" o.Check.Derive.conjuncts;
      Table.cell_int (List.length o.Check.Derive.witnesses);
      Table.cell_int (List.length o.Check.Derive.separations);
      Table.cell_bool o.Check.Derive.certified;
      Table.cell_bool (Check.Derive.tight o);
      Table.cell_bool r.row_ok;
    ]
  in
  let table =
    {
      Table.id = "E26";
      title = "derived heard-of predicates from adversary policies";
      claim =
        "for every network adversary policy the strongest vocabulary \
         predicate its executions satisfy is derivable and certifiable \
         two-sidedly: a fresh sharded fuzz campaign finds no violation of \
         the derived predicate (sound), every stronger candidate comes \
         with a concrete violating execution (tight), at n=3 by full \
         enumeration of the derived space (proof), and a Byzantine \
         policy's benign projection derives exactly the benign policy's \
         predicate";
      header =
        [
          "adversary"; "mode"; "n"; "f"; "obs"; "cert"; "cands"; "sound";
          "derived"; "wit"; "sep"; "certified"; "tight"; "ok";
        ];
      rows = List.map cells rows;
      notes =
        [
          "derived = lattice-minimal conjunction of every candidate no \
           observed execution violated; wit = refuted candidates, each \
           with its lowest violating trial as a replayable witness";
          "mode exh additionally separates each frontier member from the \
           derived predicate by enumerating the whole small-n space — \
           sep counts those proofs";
          "the byz row runs at the same row seed as none and must derive \
           identically (lies never touch the delay schedule), or its ok \
           cell fails";
        ];
      counters =
        Table.counter_stats
          (Array.concat
             (List.map (fun r -> r.outcome.Check.Derive.counters) rows));
    }
  in
  (table, artifact_field rows)
