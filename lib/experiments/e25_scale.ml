(* E25 — breaking the n ≤ 62 wall: large-n scaling campaigns.

   Every earlier experiment lives below Pset's old single-word cap.
   This one exists to prove the wide (multi-word) representation end to
   end: three protocol probes — one-round k-set agreement on the
   abstract engine, heartbeat convergence on the asynchronous network,
   and Chandra–Toueg consensus with its embedded detector — run at
   n = 100 and n = 1000 (and n = 10000 from the CLI), sizes where every
   fault set, quorum and heard-of computation is multi-word.  The table
   gates on correctness only (agreement, validity, convergence,
   all-decided); {!measure} times the same probes wall-clock and
   denominates them in work units (ns/round, ns/msg — the
   ThroughputMeasure idiom) for the BENCH json regression gate.

   Trials run as a Runtime.Campaign with per-cell derived seeds, so the
   table and the {!to_json} artifact are bit-identical at every [-j] —
   the [@scale-smoke] contract.  Per-cell trial counts shrink as n grows
   ([trials_for]): a 1000-process heartbeat trial is n² simulated
   deliveries per beat, so the grid buys width with repetition. *)

module Json = Report.Json

let probes = [ "kset"; "heartbeat"; "ct" ]

let default_ns = [ 100; 1000 ]

(* Budget ~1000 simulated processes' worth of work per cell: n = 100
   runs [trials] trials (capped at 10), n = 1000 one. *)
let trials_for ~trials n = max 1 (min trials (1000 / n))

type digest = {
  ok : bool;
  counters : Rrfd.Counters.t;
  checksum : int;  (** Order-sensitive hash of the decision vector. *)
}

let checksum_decisions decisions =
  Array.fold_left
    (fun acc d ->
      let v = match d with None -> -1 | Some v -> v in
      ((acc * 31) + v + 1) land 0x3FFFFFFF)
    17 decisions

(* {2 Probes}

   Each consumes one [rng] draw per simulator it seeds, so the campaign's
   per-trial RNG derivation fixes the whole trial. *)

let kset_trial ~rng ~n =
  let k = 2 in
  let inputs = Tasks.Inputs.distinct n in
  let detector = Rrfd.Detector_gen.k_set rng ~n ~k in
  let ex =
    Protocols.Catalog.run_engine
      (Protocols.Catalog.find_exn "kset-one-round")
      ~inputs
      ~check:(Rrfd.Predicate.k_set ~k)
      ~n ~f:(k - 1) ~detector ()
  in
  let distinct =
    Tasks.Agreement.distinct_decisions ~decisions:ex.Rrfd.Substrate.decisions
  in
  let ok =
    ex.Rrfd.Substrate.rounds_used = 1
    && distinct <= k
    && Tasks.Agreement.check ~k ~inputs ex.Rrfd.Substrate.decisions = None
    && ex.Rrfd.Substrate.violation = None
  in
  {
    ok;
    counters = ex.Rrfd.Substrate.counters;
    checksum = checksum_decisions ex.Rrfd.Substrate.decisions;
  }

(* Failure-free heartbeat exchange: every beat is an (n−1)-way broadcast
   (n² simulated deliveries), so the horizon allows exactly two beats per
   process and convergence (no live-live suspicion at drain) is the
   correctness claim.  Deterministically convergent: the last beat of any
   process arrives within [horizon + max_delay], so every observer's
   recency at drain is at most [horizon + max_delay − 1 < initial_timeout]. *)
let hb_interval = 15.0

let hb_horizon = 30.0

(* The drained heartbeat exchange: its simulator, network and detector. *)
let heartbeat_exchange ~seed ~n =
  let sim = Dsim.Sim.create ~seed () in
  let hb = ref None in
  let deliver _ ~to_ ~from () =
    Msgnet.Heartbeat.beat (Option.get !hb) ~at:to_ ~from
  in
  let net = Msgnet.Network.create ~sim ~n ~deliver () in
  hb :=
    Some
      (Msgnet.Heartbeat.create ~sim ~n
         ~send_heartbeat:(fun ~from ->
           Msgnet.Network.broadcast net ~from ~self:false ())
         ~interval:hb_interval ~initial_timeout:42.0 ~horizon:hb_horizon ());
  Dsim.Sim.run sim;
  (sim, net, Option.get !hb)

let heartbeat_trial ~seed ~n =
  let _, net, hb = heartbeat_exchange ~seed ~n in
  let suspicions =
    List.length (Msgnet.Heartbeat.live_suspicions hb ~among:(Rrfd.Pset.full n))
  in
  {
    ok = suspicions = 0;
    counters =
      {
        Rrfd.Counters.rounds =
          int_of_float (hb_horizon /. hb_interval) (* beats per process *);
        messages = Msgnet.Network.messages_delivered net;
        detector_queries = n * n (* the convergence sweep *);
        predicate_checks = 0;
      };
    checksum = suspicions;
  }

(* Failure-free CT consensus.  The scale parameters stretch the heartbeat
   interval and shorten the horizon (every beat is an n-way broadcast);
   the long initial timeout keeps the failure-free run suspicion-free, so
   decisions land in phase 0 and the horizon only bounds drain work. *)
let ct_trial ~seed ~n =
  let f = (n - 1) / 2 in
  let inputs = Array.init n (fun i -> i mod 3) in
  let r =
    Msgnet.Ct_consensus.run ~seed ~n ~f ~inputs ~hb_interval:55.0
      ~hb_initial_timeout:120.0 ~horizon:60.0 ()
  in
  let all_decided = Array.for_all Option.is_some r.Msgnet.Ct_consensus.decisions in
  let ok =
    all_decided
    && Tasks.Agreement.check ~k:1 ~inputs r.Msgnet.Ct_consensus.decisions = None
  in
  {
    ok;
    counters =
      {
        Rrfd.Counters.rounds = r.Msgnet.Ct_consensus.phases_used + 1;
        messages = r.Msgnet.Ct_consensus.messages_sent;
        detector_queries = 0;
        predicate_checks = 0;
      };
    checksum = checksum_decisions r.Msgnet.Ct_consensus.decisions;
  }

let run_probe probe ~rng ~n =
  match probe with
  | "kset" -> kset_trial ~rng ~n
  | "heartbeat" -> heartbeat_trial ~seed:(Dsim.Rng.bits30 rng) ~n
  | "ct" -> ct_trial ~seed:(Dsim.Rng.bits30 rng) ~n
  | p -> invalid_arg ("E25: unknown probe " ^ p)

(* {2 The campaign} *)

type cell = {
  probe : string;
  cell_n : int;
  cell_trials : int;
  digests : digest array;
}

let collect ~seed ?(trials = 6) ?jobs ?(ns = default_ns) () =
  let cell_idx = ref 0 in
  List.concat_map
    (fun probe ->
      List.map
        (fun n ->
          let idx = !cell_idx in
          incr cell_idx;
          let cell_trials = trials_for ~trials n in
          let digests =
            Runtime.Campaign.run ?jobs
              ~seed:(Dsim.Rng.derive_seed seed idx)
              ~trials:cell_trials
              (fun ~trial:_ ~rng -> run_probe probe ~rng ~n)
          in
          { probe; cell_n = n; cell_trials; digests })
        ns)
    probes

let table_of cells =
  let rows =
    List.map
      (fun c ->
        let count p =
          Array.fold_left (fun k d -> if p d then k + 1 else k) 0 c.digests
        in
        let sum g =
          Array.fold_left (fun k d -> k + g d) 0 c.digests
        in
        let oks = count (fun d -> d.ok) in
        [
          c.probe;
          Table.cell_int c.cell_n;
          Table.cell_int c.cell_trials;
          Table.cell_int oks;
          Table.cell_int (sum (fun d -> d.counters.Rrfd.Counters.rounds));
          Table.cell_int (sum (fun d -> d.counters.Rrfd.Counters.messages));
          Table.cell_bool (oks = c.cell_trials);
        ])
      cells
  in
  {
    Table.id = "E25";
    title = "large-n scaling campaigns on the wide Pset";
    claim =
      "the n ≤ 62 wall is gone: one-round k-set agreement, heartbeat \
       convergence and Chandra–Toueg consensus all run correctly at \
       n = 100 and n = 1000, where every fault set, quorum and heard-of \
       computation exercises the multi-word bitset representation";
    header = [ "probe"; "n"; "trials"; "ok-trials"; "rounds"; "messages"; "ok" ];
    rows;
    notes =
      [
        "kset: engine + k-set detector (k=2), gates agreement/validity in \
         exactly one round; heartbeat: lossless network, gates zero \
         live-live suspicions at drain; ct: failure-free consensus \
         (f=(n-1)/2), gates all-decided + agreement";
        "per-cell trials shrink as n grows (max 1 (min trials 1000/n)): \
         the grid buys width with repetition";
        "rounds/messages are summed per cell and feed the throughput \
         denominators in the BENCH scale subjects";
      ];
    counters =
      Table.counter_stats
        (Array.concat (List.map (fun c -> Array.map (fun d -> d.counters) c.digests) cells));
  }

let run_detailed ~seed ?trials ?jobs ?ns () =
  let cells = collect ~seed ?trials ?jobs ?ns () in
  (table_of cells, cells)

let run ~seed ?trials ?jobs () = fst (run_detailed ~seed ?trials ?jobs ())

(* {2 Artifact codec}

   Per-trial digests only — ok flags, exact work counters and a decision
   checksum — never full histories or decision vectors: a single
   n = 1000 trial's history would dwarf the artifact.  Version-tagged like
   every artifact; only written, never read back. *)

let version = 1

let to_json cells =
  let open Report.Codec in
  let digest d =
    let c = d.counters in
    Json.Obj
      [
        ("ok", bool.enc d.ok);
        ("rounds", int.enc c.Rrfd.Counters.rounds);
        ("messages", int.enc c.Rrfd.Counters.messages);
        ("detector_queries", int.enc c.Rrfd.Counters.detector_queries);
        ("predicate_checks", int.enc c.Rrfd.Counters.predicate_checks);
        ("checksum", int.enc d.checksum);
      ]
  in
  let cell c =
    Json.Obj
      [
        ("probe", string.enc c.probe);
        ("n", int.enc c.cell_n);
        ("trials", int.enc c.cell_trials);
        ("digests", Json.List (Array.to_list (Array.map digest c.digests)));
      ]
  in
  Json.Obj
    [
      ("version", int.enc version);
      ("kind", string.enc "rrfd-scale-grid");
      ("cells", Json.List (List.map cell cells));
    ]

(* {2 Throughput measurement}

   The ThroughputMeasure idiom: attach work units to timed runs and
   report time per unit, not just time per run.  [now_ns] is injected so
   this library stays clock-agnostic (bench and the CLI pass the
   bechamel monotonic clock).  Subjects are all lower-is-better
   (ns/run, ns/round, ns/msg), so the existing --check tolerance gate
   applies unchanged; rounds/sec and messages/sec are derived views for
   humans. *)

type measurement = {
  m_probe : string;
  m_n : int;
  m_repeats : int;
  m_ns_per_run : float;
  m_rounds_per_run : float;
  m_msgs_per_run : float;
  m_ok : bool;
}

let measure ~now_ns ~seed ~ns ~repeats () =
  List.concat_map
    (fun probe ->
      List.map
        (fun n ->
          let rounds = ref 0 and msgs = ref 0 and all_ok = ref true in
          let t0 = now_ns () in
          for rep = 0 to repeats - 1 do
            let rng = Dsim.Rng.create (Dsim.Rng.derive_seed seed rep) in
            let d = run_probe probe ~rng ~n in
            rounds := !rounds + d.counters.Rrfd.Counters.rounds;
            msgs := !msgs + d.counters.Rrfd.Counters.messages;
            all_ok := !all_ok && d.ok
          done;
          let elapsed = Int64.to_float (Int64.sub (now_ns ()) t0) in
          let per_run = elapsed /. float_of_int repeats in
          {
            m_probe = probe;
            m_n = n;
            m_repeats = repeats;
            m_ns_per_run = per_run;
            m_rounds_per_run = float_of_int !rounds /. float_of_int repeats;
            m_msgs_per_run = float_of_int !msgs /. float_of_int repeats;
            m_ok = !all_ok;
          })
        ns)
    probes

let subjects_of measurements =
  List.concat_map
    (fun m ->
      let name unit =
        Printf.sprintf "rrfd/scale:%s n=%d [%s]" m.m_probe m.m_n unit
      in
      (* whole-run probes are too coarse for an allocation estimate *)
      [
        {
          Report.name = name "ns/run";
          ns_per_run = m.m_ns_per_run;
          alloc_per_run = None;
        };
        {
          Report.name = name "ns/round";
          ns_per_run = m.m_ns_per_run /. m.m_rounds_per_run;
          alloc_per_run = None;
        };
        {
          Report.name = name "ns/msg";
          ns_per_run = m.m_ns_per_run /. m.m_msgs_per_run;
          alloc_per_run = None;
        };
      ])
    measurements

let print_measurements measurements =
  Printf.printf "scale throughput:\n";
  List.iter
    (fun m ->
      Printf.printf
        "  %-10s n=%-6d %8.2f ms/run  %10.0f rounds/s  %12.0f msgs/s%s\n"
        m.m_probe m.m_n
        (m.m_ns_per_run /. 1e6)
        (m.m_rounds_per_run /. (m.m_ns_per_run /. 1e9))
        (m.m_msgs_per_run /. (m.m_ns_per_run /. 1e9))
        (if m.m_ok then "" else "  [FAILED]"))
    measurements
