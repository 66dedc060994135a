(* Differential pin of the executor hot-path refactor.

   Test_support.Compat_fixture.render runs every catalog protocol on all
   four substrates under fully pinned seeds and renders every observable
   field of each execution.  The committed fixture
   (test/fixtures/engine_compat.expected) was generated from the
   pre-refactor executor, so a byte-for-byte comparison proves the
   view-based zero-allocation engine, the arena-backed fault history and
   the RNG representation change preserved every outcome and every draw
   stream.  Regenerate only from a trusted tree:
   dune exec test/gen/gen_compat.exe > test/fixtures/engine_compat.expected *)

let compat_pin () =
  Test_support.check_fixture ~what:"executor output"
    ~file:"engine_compat.expected"
    (Test_support.Compat_fixture.render ())

(* The three validate_round rejections, pinned by exact message: the
   engine's per-round detector validation is what makes the downstream
   View.unsafe_set legal, so weakening it (or rewording it, which would
   break callers matching on the message) must show up here. *)
let validate_round_messages () =
  let n = 3 in
  let algorithm = Rrfd.Kset.one_round ~inputs:(Tasks.Inputs.distinct n) in
  let run detector () =
    ignore (Rrfd.Engine.run ~n ~algorithm ~detector ())
  in
  let bad name next = Rrfd.Detector.make ~name next in
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Engine: detector returned wrong number of fault sets")
    (run (bad "arity" (fun _ -> [| Rrfd.Pset.empty |])));
  Alcotest.check_raises "outside the system"
    (Invalid_argument "Engine: detector named a process outside the system")
    (run (bad "outside" (fun _ -> Array.make n (Rrfd.Pset.of_list [ n ]))));
  Alcotest.check_raises "D = S"
    (Invalid_argument
       "Engine: detector declared every process faulty (D = S)")
    (run (bad "all-faulty" (fun _ -> Array.make n (Rrfd.Pset.full n))))

let tests =
  [
    Alcotest.test_case "catalog x substrates vs pre-refactor fixture" `Quick
      compat_pin;
    Alcotest.test_case "validate_round rejections (exact messages)" `Quick
      validate_round_messages;
  ]
