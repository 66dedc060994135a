(* Rendered transcripts under pinned seeds.

   [render ()] prints [Protocols.Catalog.transcript] for every catalog
   protocol at its default n and f, once under a seeded crash detector
   (no online check), once under a seeded k-set detector with the k-set
   predicate re-checked online, and once under the crash detector again
   with identical views checked online, so the run stops at the first
   round whose views differ — each for a horizon of twice the
   protocol's; then [Check.Sut.transcript] of short pinned histories the
   SUT pads with failure-free rounds up to its horizon.  Every emission,
   fault set and decision of every round is in the text, so a changed
   message, a moved decision or a different stopping round shows up as a
   diff against test/fixtures/transcripts.expected. *)

module Catalog = Protocols.Catalog

let base_seed = 2718

let transcript proto ?check ~n ~f ~max_rounds ~detector () =
  fst (Catalog.transcript proto ?check ~n ~f ~max_rounds ~detector ())

let catalog_cells buf idx proto =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let name = Catalog.name proto in
  let n = Catalog.default_n proto in
  let f = Catalog.default_f proto ~n in
  let k = f + 1 in
  let max_rounds = 2 * Catalog.horizon proto ~n ~f in
  let rng sub = Dsim.Rng.create (Dsim.Rng.derive_seed base_seed ((idx * 4) + sub)) in
  pr "== %s n=%d f=%d crash\n%s\n" name n f
    (transcript proto ~n ~f ~max_rounds
       ~detector:(Rrfd.Detector_gen.crash (rng 0) ~n ~f)
       ());
  pr "== %s n=%d k=%d kset\n%s\n" name n k
    (transcript proto ~check:(Rrfd.Predicate.k_set ~k) ~n ~f
       ~max_rounds
       ~detector:(Rrfd.Detector_gen.k_set (rng 1) ~n ~k)
       ());
  pr "== %s n=%d f=%d crash, identical views checked\n%s\n" name n f
    (transcript proto ~check:Rrfd.Predicate.identical_views ~n ~f
       ~max_rounds
       ~detector:(Rrfd.Detector_gen.crash (rng 2) ~n ~f)
       ())

let s = Rrfd.Pset.of_list

(* One-round histories for multi-round SUTs: the SUT pads the rest. *)
let sut_cells buf =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (sut_name, check, rounds) ->
      let sut =
        match Check.Spec.sut sut_name with
        | Ok sut -> sut
        | Error e -> invalid_arg e
      in
      let history = Rrfd.Fault_history.of_rounds ~n:4 rounds in
      pr "== sut %s %s\n%s\n" sut_name
        (Rrfd.Fault_history.to_string_compact history)
        (Check.Sut.transcript sut ~check history))
    [
      ( "adopt-commit",
        Rrfd.Predicate.always,
        [ [| s [ 1 ]; s []; s [ 3 ]; s [ 0 ] |] ] );
      ( "phased-consensus",
        Rrfd.Predicate.always,
        [ [| s [ 2 ]; s [ 2 ]; s []; s [ 0; 1 ] |] ] );
      ( "flood-consensus",
        Rrfd.Predicate.crash ~f:1,
        [ [| s [ 3 ]; s []; s [ 3 ]; s [] |] ] );
      ("kset-one-round", Rrfd.Predicate.k_set ~k:2, []);
    ]

let render () =
  let buf = Buffer.create (1 lsl 16) in
  List.iteri (catalog_cells buf) Catalog.all;
  sut_cells buf;
  Buffer.contents buf
