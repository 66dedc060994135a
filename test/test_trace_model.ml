(* The Trace transcript recorder and the predicate combinators. *)

module Pset = Rrfd.Pset

let s = Pset.of_list

let trace_matches_engine () =
  let inputs = [| 5; 6; 7 |] in
  let d = [| s [ 2 ]; s [ 2 ]; s [ 2 ] |] in
  let detector = Rrfd.Detector.of_schedule [ d ] in
  let trace =
    Rrfd.Trace.record ~n:3 ~pp_msg:Format.pp_print_int
      ~algorithm:(Rrfd.Kset.one_round ~inputs)
      ~detector ()
  in
  Alcotest.(check int) "one round traced" 1 (List.length trace.Rrfd.Trace.rounds);
  let round = List.hd trace.Rrfd.Trace.rounds in
  Alcotest.(check (array string)) "emissions rendered"
    [| "5"; "6"; "7" |]
    round.Rrfd.Trace.emissions;
  Alcotest.(check int) "all decided this round" 3
    (List.length round.Rrfd.Trace.new_decisions);
  Alcotest.(check (array (option int))) "outcome decisions embedded"
    [| Some 5; Some 5; Some 5 |]
    trace.Rrfd.Trace.outcome.Rrfd.Substrate.decisions

let trace_multi_round () =
  let inputs = [| 1; 2; 3; 4 |] in
  let trace =
    Rrfd.Trace.record ~n:4 ~stop_when_decided:false ~max_rounds:3
      ~pp_msg:(fun ppf l -> Format.fprintf ppf "%d" (List.length l))
      ~algorithm:(Syncnet.Flood.min_flood ~inputs ~horizon:3)
      ~detector:Rrfd.Detector.none ()
  in
  Alcotest.(check int) "three rounds" 3 (List.length trace.Rrfd.Trace.rounds);
  (* flooding: everyone knows everything from round 2 on *)
  let last = List.nth trace.Rrfd.Trace.rounds 2 in
  Array.iter
    (fun e -> Alcotest.(check string) "message carries 4 values" "4" e)
    last.Rrfd.Trace.emissions;
  (* rendering shouldn't raise *)
  let rendered =
    Format.asprintf "%a" (Rrfd.Trace.pp Format.pp_print_int) trace
  in
  Alcotest.(check bool) "non-empty rendering" true (String.length rendered > 0)

(* The transcript is the run it reports, not a re-run: an algorithm
   whose emissions come from a counter shared across calls (so a second
   execution would emit different values) still gets the emissions its
   own decisions were computed from. *)
let trace_watches_the_one_run () =
  let calls = ref 0 in
  let algorithm =
    {
      Rrfd.Algorithm.name = "counter";
      init = (fun ~n:_ _ -> None);
      emit =
        (fun _ ~round:_ ->
          incr calls;
          !calls);
      deliver =
        (fun _ ~round:_ ~view ->
          Some (Array.fold_left max 0 (Array.map (Option.value ~default:0) (Rrfd.View.to_option_array view))));
      decide = Fun.id;
    }
  in
  let trace =
    Rrfd.Trace.record ~n:3 ~pp_msg:Format.pp_print_int ~algorithm
      ~detector:Rrfd.Detector.none ()
  in
  Alcotest.(check int) "emit called once per process and round" 3 !calls;
  let round = List.hd trace.Rrfd.Trace.rounds in
  Alcotest.(check (array string)) "the run's own emissions"
    [| "1"; "2"; "3" |] round.Rrfd.Trace.emissions;
  Alcotest.(check (list (pair int int))) "decisions of that run"
    [ (0, 3); (1, 3); (2, 3) ] round.Rrfd.Trace.new_decisions

(* Every catalog transcript and every padded SUT transcript, byte for
   byte against test/fixtures/transcripts.expected (generated before
   Trace began watching the engine run instead of replaying it).
   Regenerate only from a trusted tree:
   dune exec test/gen/gen_transcripts.exe > test/fixtures/transcripts.expected *)
let transcript_pin () =
  Test_support.check_fixture ~what:"transcripts" ~file:"transcripts.expected"
    (Test_support.Transcript_fixture.render ())

let predicate_disj () =
  let h_selfish = Rrfd.Fault_history.of_rounds ~n:3 [ [| s [ 0 ]; s []; s [] |] ] in
  let p =
    Rrfd.Predicate.disj Rrfd.Predicate.no_self_suspicion
      (Rrfd.Predicate.async_resilient ~f:1)
  in
  Alcotest.(check bool) "one side enough" true (Rrfd.Predicate.holds p h_selfish);
  let h_both_bad =
    Rrfd.Fault_history.of_rounds ~n:3 [ [| s [ 0; 1 ]; s []; s [] |] ]
  in
  Alcotest.(check bool) "both sides fail" false
    (Rrfd.Predicate.holds p h_both_bad)

let tests =
  [
    Alcotest.test_case "trace matches engine" `Quick trace_matches_engine;
    Alcotest.test_case "trace multi round" `Quick trace_multi_round;
    Alcotest.test_case "trace watches the one run" `Quick
      trace_watches_the_one_run;
    Alcotest.test_case "catalog and SUT transcripts vs fixture" `Quick
      transcript_pin;
    Alcotest.test_case "predicate disj" `Quick predicate_disj;
  ]
