(* E22 — the cross-substrate differential matrix.

   The paper's unification claim, stress-tested wholesale: every protocol
   in the catalog runs on every execution substrate (abstract engine,
   lock-step synchronous network, event-driven asynchronous network) under
   equivalent fault policies; each run's induced fault history is replayed
   pinned on the abstract engine, and the decisions and the P1–P5
   classification of the history must agree bit-for-bit on every process
   that completed the whole induced history (Rrfd.Substrate.agrees) —
   the engine's everybody, the synchronous network's non-crashed, the
   asynchronous layer's fully-completed processes.

   Trials run as a Runtime.Campaign with per-(cell, trial) RNG derivation,
   so the table and the per-trial artifact field run returns beside it
   are identical at every worker count. *)

let n = 5

let f = 2

let policies = [ "none"; "crash"; "lossy" ]

type sub_obs = {
  sub : string;
  compact : string;  (* induced history, compact rendering *)
  replay_compact : string;  (* replayed history — must be identical *)
  decisions_ok : bool;
  classes_ok : bool;
}

type trial_obs = { subs : sub_obs list; counters : Rrfd.Counters.t }

(* Built when the module loads: campaign trials on several domains read
   it at once, and concurrent forcing of a shared [lazy] raises
   [CamlinternalLazy.Undefined] on OCaml 5. *)
let lossy_adversary =
  match Msgnet.Adversary.of_spec "drop:p=20" with
  | Ok a -> a
  | Error e -> invalid_arg ("E22: " ^ e)

let check_substrate proto ~inputs (ex : int Rrfd.Substrate.execution) =
  let open Rrfd.Substrate in
  let replayed =
    Protocols.Catalog.replay proto ~inputs ~f ~history:ex.induced ()
  in
  let decisions_ok = agrees ~equal:Int.equal ex ~replayed:replayed.decisions in
  let classes_ok =
    Msgnet.Heard_of.classify ~f ex.induced
    = Msgnet.Heard_of.classify ~f replayed.induced
  in
  ( {
      sub = ex.substrate;
      compact = Rrfd.Fault_history.to_string_compact ex.induced;
      replay_compact = Rrfd.Fault_history.to_string_compact replayed.induced;
      decisions_ok;
      classes_ok;
    },
    ex.counters )

(* One trial's three executions — engine, sync, msgnet — under [policy]. *)
let executions proto ~policy ~rng =
  let inputs = Protocols.Catalog.default_inputs ~n in
  let rounds = Protocols.Catalog.horizon proto ~n ~f in
  let detector =
    match policy with
    | "none" -> Rrfd.Detector.none
    | "crash" -> Rrfd.Detector_gen.crash rng ~n ~f
    | _ -> Rrfd.Detector_gen.omission rng ~n ~f
  in
  let pattern =
    match policy with
    | "none" -> Syncnet.Faults.none ~n
    | "crash" -> Syncnet.Faults.random_crash rng ~n ~f ~max_round:rounds
    | _ -> Syncnet.Faults.random_omission rng ~n ~f
  in
  let net_seed = Dsim.Rng.bits30 rng in
  let crashes =
    match policy with
    | "crash" ->
      List.map
        (fun p -> (p, 1.0 +. float_of_int (Dsim.Rng.int rng 40)))
        (Dsim.Rng.sample_without_replacement rng f n)
    | _ -> []
  in
  let adversary =
    match policy with "lossy" -> Some lossy_adversary | _ -> None
  in
  let engine_ex =
    Protocols.Catalog.run_engine proto ~inputs ~max_rounds:rounds ~n ~f
      ~detector ()
  in
  let sync_ex =
    Protocols.Catalog.run_sync proto ~inputs ~rounds ~n ~f ~pattern ()
  in
  let net_ex =
    Protocols.Catalog.run_msgnet proto ~inputs ~crashes ?adversary ~rounds
      ~seed:net_seed ~n ~f ()
  in
  [ engine_ex; sync_ex; net_ex ]

let run_trial proto ~policy ~rng =
  let inputs = Protocols.Catalog.default_inputs ~n in
  let subs, counters =
    List.fold_left
      (fun (subs, acc) ex ->
        let s, c = check_substrate proto ~inputs ex in
        (s :: subs, Rrfd.Counters.add acc c))
      ([], Rrfd.Counters.zero)
      (executions proto ~policy ~rng)
  in
  { subs = List.rev subs; counters }

let sub_ok name o =
  List.for_all (fun s -> s.sub <> name || s.decisions_ok) o.subs

(* The artifact's extra field: every trial's per-substrate induced
   and replayed histories, by (protocol, policy) cell. *)
let artifact_field details =
  let module Json = Report.Json in
  let sub_json s =
    Json.Obj
      [
        ("sub", Json.String s.sub);
        ("induced", Json.String s.compact);
        ("replayed", Json.String s.replay_compact);
        ("decisions_ok", Json.Bool s.decisions_ok);
        ("classes_ok", Json.Bool s.classes_ok);
      ]
  in
  ( "cells",
    Json.List
      (List.map
         (fun (protocol, policy, obs) ->
           Json.Obj
             [
               ("protocol", Json.String protocol);
               ("policy", Json.String policy);
               ( "trials",
                 Json.List
                   (List.map (fun o -> Json.List (List.map sub_json o.subs)) obs)
               );
             ])
         details) )

let run ~seed ?(trials = 30) ?jobs () =
  let work = ref [] in
  let details = ref [] in
  let cell_idx = ref 0 in
  let rows =
    List.concat_map
      (fun proto ->
        List.map
          (fun policy ->
            let idx = !cell_idx in
            incr cell_idx;
            let obs =
              Runtime.Campaign.run ?jobs
                ~seed:(Dsim.Rng.derive_seed seed idx)
                ~trials
                (fun ~trial:_ ~rng -> run_trial proto ~policy ~rng)
            in
            work := Array.map (fun o -> o.counters) obs :: !work;
            details :=
              (Protocols.Catalog.name proto, policy, Array.to_list obs)
              :: !details;
            let count p =
              Array.fold_left (fun c o -> if p o then c + 1 else c) 0 obs
            in
            let eng = count (sub_ok "engine") in
            let syn = count (sub_ok "sync") in
            let net = count (sub_ok "msgnet") in
            let classes =
              count (fun o -> List.for_all (fun s -> s.classes_ok) o.subs)
            in
            [
              Protocols.Catalog.name proto;
              policy;
              Table.cell_int trials;
              Table.cell_int eng;
              Table.cell_int syn;
              Table.cell_int net;
              Table.cell_int classes;
              Table.cell_bool
                (eng = trials && syn = trials && net = trials
               && classes = trials);
            ])
          policies)
      Protocols.Catalog.all
  in
  let table =
    {
      Table.id = "E22";
      title = "cross-substrate differential matrix (protocol × substrate × policy)";
      claim =
        "the unification claim at catalog scale: every protocol, run over \
         the abstract engine, the synchronous network and the asynchronous \
         network under equivalent fault policies, induces a fault history \
         whose pinned engine replay reproduces the run's decisions and \
         P1–P5 classification bit-for-bit";
      header =
        [
          "protocol"; "policy"; "trials"; "engine"; "sync"; "msgnet";
          "classes"; "ok";
        ];
      rows;
      notes =
        [
          Printf.sprintf
            "n = %d, f = %d; engine/sync/msgnet count trials whose decisions \
             the replay reproduced on the comparable set (all / non-crashed \
             / fully-completed processes)"
            n f;
          "classes counts trials where the P1–P5 classification of every \
           substrate's induced history survived the replay unchanged";
        ];
      counters = Table.counter_stats (Array.concat (List.rev !work));
    }
  in
  (table, artifact_field (List.rev !details))
