(* The experiment registry and table rendering. *)

let ids_unique_and_ordered () =
  let ids = List.map (fun e -> e.Experiments.Registry.id) Experiments.Registry.all in
  Alcotest.(check int) "twenty-five experiments" 25 (List.length ids);
  Alcotest.(check (list string)) "sorted E1..E19 then E21..E26"
    (List.init 19 (fun i -> Printf.sprintf "E%d" (i + 1))
    @ [ "E21"; "E22"; "E23"; "E24"; "E25"; "E26" ])
    ids;
  Alcotest.(check int) "unique" 25 (List.length (List.sort_uniq compare ids))

let find_is_case_insensitive () =
  (match Experiments.Registry.find "e9" with
  | Some e -> Alcotest.(check string) "found E9" "E9" e.Experiments.Registry.id
  | None -> Alcotest.fail "e9 not found");
  Alcotest.(check bool) "unknown id" true (Experiments.Registry.find "E99" = None)

let table_ok_detects_failures () =
  let good =
    {
      Experiments.Table.id = "T";
      title = "t";
      claim = "c";
      header = [ "a" ];
      rows = [ [ "yes" ]; [ "1" ] ];
      notes = [];
      counters = [];
    }
  in
  Alcotest.(check bool) "good table" true (Experiments.Table.ok good);
  let bad = { good with Experiments.Table.rows = [ [ "yes" ]; [ "NO" ] ] } in
  Alcotest.(check bool) "bad table" false (Experiments.Table.ok bad)

let cells_format () =
  Alcotest.(check string) "int" "42" (Experiments.Table.cell_int 42);
  Alcotest.(check string) "float" "3.14" (Experiments.Table.cell_float 3.14159);
  Alcotest.(check string) "bool true" "yes" (Experiments.Table.cell_bool true);
  Alcotest.(check string) "bool false" "NO" (Experiments.Table.cell_bool false)

(* The envelope `run ID --json` writes: five fields, then the
   experiment's own extra field when it has one. *)
let table_envelope () =
  let t =
    {
      Experiments.Table.id = "T";
      title = "t";
      claim = "c";
      header = [ "a"; "ok" ];
      rows = [ [ "1"; "yes" ] ];
      notes = [ "dropped" ];
      counters = [];
    }
  in
  let bytes ?extra () =
    Report.Json.to_string (Experiments.Table.to_json ~seed:7 ?extra t)
  in
  let plain =
    {|{"id": "T", "seed": 7, "header": ["a", "ok"], "rows": [["1", "yes"]], "ok": true}|}
  in
  Alcotest.(check string) "no extra field" plain (bytes ());
  Alcotest.(check string) "extra field last"
    (String.sub plain 0 (String.length plain - 1) ^ {|, "cells": []}|})
    (bytes ~extra:("cells", Report.Json.List []) ())

(* The experiments whose tables must carry per-trial engine-counter
   summaries: everything whose run-loop drives a substrate (the campaign
   experiments and the catalog-driven sync/engine loops). *)
let counter_backed =
  [
    "E6"; "E7"; "E8"; "E9"; "E10"; "E11"; "E14"; "E17"; "E18"; "E21"; "E22";
    "E23"; "E25"; "E26";
  ]

let every_experiment_runs_tiny () =
  (* Smoke: every registered experiment completes at a minimal trial count
     and produces at least one row, with work counters where promised. *)
  List.iter
    (fun e ->
      let t, extra =
        e.Experiments.Registry.run ~seed:1 ~trials:(Some 2) ~jobs:(Some 1)
      in
      Alcotest.(check bool)
        (e.Experiments.Registry.id ^ " has an artifact field iff E21/22/24/26")
        (List.mem e.Experiments.Registry.id [ "E21"; "E22"; "E24"; "E26" ])
        (extra <> None);
      Alcotest.(check bool)
        (e.Experiments.Registry.id ^ " has rows")
        true
        (List.length t.Experiments.Table.rows > 0);
      if List.mem e.Experiments.Registry.id counter_backed then (
        Alcotest.(check bool)
          (e.Experiments.Registry.id ^ " has work counters")
          true
          (t.Experiments.Table.counters <> []);
        List.iter
          (fun (_, s) ->
            Alcotest.(check bool)
              (e.Experiments.Registry.id ^ " counter stats sampled")
              true
              (s.Runtime.Stats.count > 0))
          t.Experiments.Table.counters))
    Experiments.Registry.all

(* E22's lossy cells on four domains: their trials read one shared
   network adversary from several domains at once, so it must be built
   before they start (a shared [lazy] forced concurrently raises
   [CamlinternalLazy.Undefined]).  Listed before any other E22 run so
   that these trials are the first to read it, and checked against the
   serial run cell by cell. *)
let e22_lossy_cells_on_four_domains () =
  let lossy jobs =
    let _, (_, cells) = Experiments.E22_xsub.run ~seed:3 ~trials:16 ~jobs () in
    List.filter
      (fun cell -> Report.Json.(str (member "policy" cell)) = "lossy")
      (Report.Json.list cells)
  in
  let parallel = lossy 4 in
  Alcotest.(check int) "one lossy cell per protocol"
    (List.length Protocols.Catalog.all) (List.length parallel);
  Alcotest.(check bool) "same trials as the serial run" true (parallel = lossy 1)

let tests =
  [
    Alcotest.test_case "E22 lossy cells on 4 domains" `Quick
      e22_lossy_cells_on_four_domains;
    Alcotest.test_case "ids unique and ordered" `Quick ids_unique_and_ordered;
    Alcotest.test_case "find case-insensitive" `Quick find_is_case_insensitive;
    Alcotest.test_case "table ok detection" `Quick table_ok_detects_failures;
    Alcotest.test_case "cell formatting" `Quick cells_format;
    Alcotest.test_case "table envelope" `Quick table_envelope;
    Alcotest.test_case "every experiment runs" `Slow every_experiment_runs_tiny;
  ]
