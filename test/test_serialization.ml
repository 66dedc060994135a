(* Fault-history equality and compact serialization round-trips. *)

module Pset = Rrfd.Pset
module H = Rrfd.Fault_history

let s = Pset.of_list

let explicit_round_trip () =
  let h =
    H.of_rounds ~n:3
      [ [| s [ 1 ]; s []; s [ 0; 1 ] |]; [| s []; s []; s [] |] ]
  in
  let text = H.to_string_compact h in
  Alcotest.(check string) "rendering" "n=3;1:{1}{}{0,1};2:{}{}{}" text;
  Alcotest.(check bool) "round trip" true (H.equal h (H.of_string_compact text))

let empty_history () =
  let h = H.empty ~n:4 in
  let text = H.to_string_compact h in
  Alcotest.(check string) "empty" "n=4" text;
  Alcotest.(check bool) "round trip" true (H.equal h (H.of_string_compact text))

let malformed_inputs () =
  List.iter
    (fun bad ->
      Alcotest.check_raises bad
        (Invalid_argument "Fault_history.of_string_compact: malformed input")
        (fun () -> ignore (H.of_string_compact bad)))
    [ "x=3"; "n=three"; "n=2;1:{0}"; "n=2;1:0}{1}"; "n=2;1:{a}{}" ]

let equality_cases () =
  let a = H.of_rounds ~n:2 [ [| s [ 1 ]; s [] |] ] in
  let b = H.of_rounds ~n:2 [ [| s [ 1 ]; s [] |] ] in
  let c = H.of_rounds ~n:2 [ [| s []; s [] |] ] in
  Alcotest.(check bool) "equal" true (H.equal a b);
  Alcotest.(check bool) "different sets" false (H.equal a c);
  Alcotest.(check bool) "different lengths" false
    (H.equal a (H.append a [| s []; s [] |]))

let round_trip_property =
  QCheck.Test.make ~name:"compact serialization round-trips" ~count:500
    QCheck.(
      triple (Test_support.int_range 1 10) (int_bound 100000)
        (Test_support.int_range 0 5))
    (fun (n, seed, rounds) ->
      let rng = Dsim.Rng.create seed in
      let rec build h r =
        if r = 0 then h
        else
          let round =
            Array.init n (fun _ ->
                Pset.random_subset rng (Pset.full n))
          in
          (* keep D ≠ S conventions irrelevant here: any subset is legal in
             a raw history *)
          build (H.append h round) (r - 1)
      in
      let h = build (H.empty ~n) rounds in
      H.equal h (H.of_string_compact (H.to_string_compact h)))

let tests =
  [
    Alcotest.test_case "explicit round trip" `Quick explicit_round_trip;
    Alcotest.test_case "empty history" `Quick empty_history;
    Alcotest.test_case "malformed inputs" `Quick malformed_inputs;
    Alcotest.test_case "equality" `Quick equality_cases;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ round_trip_property ]
