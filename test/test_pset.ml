(* Unit and property tests for Rrfd.Pset.

   Pset has two representations behind one abstract type — a one-word
   immediate int for ids below 62 and a canonical
   multi-word array above — so beyond the basic algebra the suite
   drives both widths through identical op sequences (a shift-by-64
   differential), checks them against a Stdlib Set model, and
   concentrates qcheck traffic on the 61…70 promotion boundary. *)

module Pset = Rrfd.Pset
module IntSet = Set.Make (Int)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let set testable_name l = Alcotest.check (Alcotest.list Alcotest.int) testable_name l

let basic () =
  check "empty has nothing" false (Pset.mem 0 Pset.empty);
  check_int "empty cardinal" 0 (Pset.cardinal Pset.empty);
  let s = Pset.of_list [ 3; 1; 4; 1 ] in
  check_int "duplicates collapse" 3 (Pset.cardinal s);
  set "sorted elements" [ 1; 3; 4 ] (Pset.to_list s);
  check "mem present" true (Pset.mem 4 s);
  check "mem absent" false (Pset.mem 2 s);
  check "remove" false (Pset.mem 3 (Pset.remove 3 s));
  check_int "full n" 7 (Pset.cardinal (Pset.full 7))

let algebra () =
  let a = Pset.of_list [ 0; 1; 2 ] and b = Pset.of_list [ 2; 3 ] in
  set "union" [ 0; 1; 2; 3 ] (Pset.to_list (Pset.union a b));
  set "inter" [ 2 ] (Pset.to_list (Pset.inter a b));
  set "diff" [ 0; 1 ] (Pset.to_list (Pset.diff a b));
  check "subset yes" true (Pset.subset (Pset.of_list [ 1 ]) a);
  check "subset no" false (Pset.subset b a)

let extrema () =
  let s = Pset.of_list [ 5; 2; 9 ] in
  Alcotest.(check (option int)) "min" (Some 2) (Pset.min_elt s);
  Alcotest.(check (option int)) "min empty" None (Pset.min_elt Pset.empty);
  check_int "nth 0" 2 (Pset.choose_nth s 0);
  check_int "nth 2" 9 (Pset.choose_nth s 2);
  Alcotest.check_raises "nth out of range"
    (Invalid_argument "Pset.choose_nth: index 3 out of [0,3)") (fun () ->
      ignore (Pset.choose_nth s 3))

let enumeration () =
  let s = Pset.full 4 in
  check_int "subsets count" 16 (List.length (Pset.subsets s));
  List.iter
    (fun sub -> check "subset of s" true (Pset.subset sub s))
    (Pset.subsets s)

let out_of_range () =
  let bad_id p = Printf.sprintf "Pset: process id %d out of [0,%d)" p Pset.max_universe in
  Alcotest.check_raises "negative id" (Invalid_argument (bad_id (-1))) (fun () ->
      ignore (Pset.singleton (-1)));
  Alcotest.check_raises "too large full"
    (Invalid_argument
       (Printf.sprintf "Pset.full: size %d out of [0,%d]" (Pset.max_universe + 1)
          Pset.max_universe)) (fun () -> ignore (Pset.full (Pset.max_universe + 1)));
  Alcotest.check_raises "subset size too large"
    (Invalid_argument "Pset.random_subset_of_size: k 5 out of [0,3]") (fun () ->
      let rng = Dsim.Rng.create 7 in
      ignore (Pset.random_subset_of_size rng (Pset.full 3) 5));
  (* mem range-checks like every other entry point — it used to return
     a silent false for out-of-range ids. *)
  Alcotest.check_raises "mem negative id" (Invalid_argument (bad_id (-1)))
    (fun () -> ignore (Pset.mem (-1) Pset.empty));
  Alcotest.check_raises "mem past max_universe"
    (Invalid_argument (bad_id Pset.max_universe)) (fun () ->
      ignore (Pset.mem Pset.max_universe (Pset.full 4)));
  (* In-range ids past a set's width are fine and simply absent. *)
  check "mem beyond small width" false (Pset.mem 100 (Pset.full 4));
  check "mem beyond wide width" false (Pset.mem 500 (Pset.full 70))

(* Range checks are a property of the id, not of the receiving set's
   representation: mem/add/remove must raise the same error on the
   immediate-int and multi-word forms, and ids 61/62 — the last small id
   and the first wide one — are ordinary in-range values on both. *)
let out_of_range_both_representations () =
  let bad_id p =
    Printf.sprintf "Pset: process id %d out of [0,%d)" p Pset.max_universe
  in
  let reprs =
    [ ("small", Pset.full 4); ("wide", Pset.full 70) ]
  in
  List.iter
    (fun (label, s) ->
      List.iter
        (fun p ->
          let expect = Invalid_argument (bad_id p) in
          Alcotest.check_raises
            (Printf.sprintf "%s: mem %d raises" label p)
            expect
            (fun () -> ignore (Pset.mem p s));
          Alcotest.check_raises
            (Printf.sprintf "%s: add %d raises" label p)
            expect
            (fun () -> ignore (Pset.add p s));
          Alcotest.check_raises
            (Printf.sprintf "%s: remove %d raises" label p)
            expect
            (fun () -> ignore (Pset.remove p s)))
        [ -1; Pset.max_universe; Pset.max_universe + 61 ])
    reprs;
  (* Exactly at the 61/62 promotion boundary, on both representations:
     no raise, and the width adjusts rather than the range check. *)
  List.iter
    (fun (label, s) ->
      check (label ^ ": mem 61 in-range") (Pset.equal s (Pset.full 70))
        (Pset.mem 61 s);
      check (label ^ ": mem 62 in-range") (Pset.equal s (Pset.full 70))
        (Pset.mem 62 s);
      check (label ^ ": add 61 lands") true (Pset.mem 61 (Pset.add 61 s));
      check (label ^ ": add 62 lands") true (Pset.mem 62 (Pset.add 62 s));
      check (label ^ ": remove 62 clears") false
        (Pset.mem 62 (Pset.remove 62 (Pset.add 62 s))))
    reprs;
  check "add 61 keeps the small form small" true
    (Pset.is_small (Pset.add 61 (Pset.full 4)));
  check "add 62 promotes the small form" false
    (Pset.is_small (Pset.add 62 (Pset.full 4)));
  check "remove 62 from a small set is a small no-op" true
    (let s = Pset.full 4 in
     Pset.is_small (Pset.remove 62 s) && Pset.equal s (Pset.remove 62 s));
  check "remove 61 works on the wide form" false
    (Pset.mem 61 (Pset.remove 61 (Pset.full 70)))

(* The promotion boundary: id 62 splits the id space into
   the immediate-int and multi-word representations. *)
let representation () =
  check "empty is small" true (Pset.is_small Pset.empty);
  check "61 is small" true (Pset.is_small (Pset.singleton 61));
  check "62 is wide" false (Pset.is_small (Pset.singleton 62));
  check "full 62 is small" true (Pset.is_small (Pset.full 62));
  check "full 63 is wide" false (Pset.is_small (Pset.full 63));
  check "add 62 promotes" false (Pset.is_small (Pset.add 62 (Pset.full 10)));
  (* Canonicity: any op whose result fits one word collapses back to the
     immediate representation, so equality stays structural. *)
  check "remove 62 demotes" true
    (Pset.is_small (Pset.remove 62 (Pset.add 62 (Pset.full 10))));
  check "inter demotes" true
    (Pset.is_small (Pset.inter (Pset.full 70) (Pset.full 10)));
  check "diff demotes" true
    (Pset.is_small
       (Pset.diff (Pset.full 70) (Pset.of_list [ 62; 63; 64; 65; 66; 67; 68; 69 ])));
  check "filter demotes" true
    (Pset.is_small (Pset.filter (fun p -> p < 5) (Pset.full 70)));
  check "demoted equals small" true
    (Pset.equal (Pset.full 10) (Pset.remove 62 (Pset.add 62 (Pset.full 10))))

let wide_basics () =
  let n = 200 in
  let s = Pset.full n in
  check_int "full 200 cardinal" n (Pset.cardinal s);
  Alcotest.(check (option int)) "min" (Some 0) (Pset.min_elt s);
  check_int "nth 150" 150 (Pset.choose_nth s 150);
  check "mem 199" true (Pset.mem 199 s);
  check "subset of itself" true (Pset.subset s s);
  check "full 62 subset full 200" true (Pset.subset (Pset.full 62) s);
  let t = Pset.diff s (Pset.full 62) in
  check_int "diff cardinal" (n - 62) (Pset.cardinal t);
  check "union restores" true (Pset.equal s (Pset.union t (Pset.full 62)));
  let sparse = Pset.of_list [ 0; 61; 62; 123; 124; 199 ] in
  set "sparse to_list" [ 0; 61; 62; 123; 124; 199 ] (Pset.to_list sparse);
  check_int "sparse nth 3" 123 (Pset.choose_nth sparse 3);
  check "compare consistent" true (Pset.compare s s = 0);
  check "small < wide" true (Pset.compare (Pset.full 62) s < 0)

let qcheck_props =
  let open QCheck in
  (* Ids concentrated around the 61…70 word boundary, with enough spread
     to cover multi-word sets and trailing-word normalization. *)
  let gen_id =
    Gen.(
      frequency
        [ (3, int_bound 61); (4, int_range 55 70); (2, int_range 62 130); (1, int_range 0 260) ])
  in
  let gen_ids = Gen.(list_size (int_bound 12) gen_id) in
  let gen_set = Gen.map Pset.of_list gen_ids in
  let arb_set = make ~print:Pset.to_string gen_set in
  let arb_ids = make ~print:Print.(list int) gen_ids in
  let small_ids = Gen.(list_size (int_bound 10) (int_bound 61)) in
  let arb_small = make ~print:Pset.to_string (Gen.map Pset.of_list small_ids) in
  (* Drive the one-word and multi-word paths through the same op
     sequence: shifting every id by 64 lands the whole computation in
     the wide representation, and the results must track. *)
  let shift64 s = Pset.of_list (List.map (fun p -> p + 64) (Pset.to_list s)) in
  [
    Test.make ~name:"union commutes" ~count:500 (pair arb_set arb_set)
      (fun (a, b) -> Pset.equal (Pset.union a b) (Pset.union b a));
    Test.make ~name:"inter absorbs union" ~count:500 (pair arb_set arb_set)
      (fun (a, b) -> Pset.equal (Pset.inter a (Pset.union a b)) a);
    Test.make ~name:"diff then union restores superset" ~count:500
      (pair arb_set arb_set) (fun (a, b) ->
        Pset.subset a (Pset.union (Pset.diff a b) (Pset.inter a b)));
    Test.make ~name:"cardinal = length of to_list" ~count:500 arb_set (fun s ->
        Pset.cardinal s = List.length (Pset.to_list s));
    Test.make ~name:"fold visits ascending" ~count:500 arb_set (fun s ->
        let l = List.rev (Pset.fold (fun p acc -> p :: acc) s []) in
        l = List.sort compare l);
    Test.make ~name:"random_subset_of_size has requested size" ~count:300
      (pair arb_set small_nat) (fun (s, k) ->
        let rng = Dsim.Rng.create (Pset.cardinal s + k) in
        let k = min k (Pset.cardinal s) in
        let sub = Pset.random_subset_of_size rng s k in
        Pset.cardinal sub = k && Pset.subset sub s);
    (* Model oracle: every observation agrees with Stdlib's Set. *)
    Test.make ~name:"model: of_list/to_list" ~count:500 arb_ids (fun ids ->
        Pset.to_list (Pset.of_list ids) = IntSet.elements (IntSet.of_list ids));
    Test.make ~name:"model: algebra" ~count:500 (pair arb_ids arb_ids)
      (fun (xs, ys) ->
        let a = Pset.of_list xs and b = Pset.of_list ys in
        let ma = IntSet.of_list xs and mb = IntSet.of_list ys in
        Pset.to_list (Pset.union a b) = IntSet.elements (IntSet.union ma mb)
        && Pset.to_list (Pset.inter a b) = IntSet.elements (IntSet.inter ma mb)
        && Pset.to_list (Pset.diff a b) = IntSet.elements (IntSet.diff ma mb)
        && Pset.subset a b = IntSet.subset ma mb
        && Pset.equal a b = IntSet.equal ma mb
        && Pset.min_elt a = IntSet.min_elt_opt ma);
    Test.make ~name:"model: add/remove/mem" ~count:500
      (pair arb_ids (make ~print:Print.int gen_id))
      (fun (ids, p) ->
        let s = Pset.of_list ids and m = IntSet.of_list ids in
        Pset.mem p s = IntSet.mem p m
        && Pset.to_list (Pset.add p s) = IntSet.elements (IntSet.add p m)
        && Pset.to_list (Pset.remove p s) = IntSet.elements (IntSet.remove p m));
    Test.make ~name:"model: choose_nth enumerates" ~count:300 arb_set (fun s ->
        List.mapi (fun i _ -> Pset.choose_nth s i) (Pset.to_list s) = Pset.to_list s);
    (* Representation invariants. *)
    Test.make ~name:"is_small iff all ids below small-word bound (62)"
      ~count:500
      arb_set (fun s ->
        Pset.is_small s = Pset.for_all (fun p -> p < 62) s);
    Test.make ~name:"compare is zero iff equal" ~count:500 (pair arb_set arb_set)
      (fun (a, b) -> Pset.compare a b = 0 = Pset.equal a b);
    (* Width differential: the same op sequence shifted into the wide
       representation gives the shifted result. *)
    Test.make ~name:"differential: union/inter/diff shift-equivariant" ~count:500
      (pair arb_small arb_small) (fun (a, b) ->
        let a' = shift64 a and b' = shift64 b in
        Pset.equal (shift64 (Pset.union a b)) (Pset.union a' b')
        && Pset.equal (shift64 (Pset.inter a b)) (Pset.inter a' b')
        && Pset.equal (shift64 (Pset.diff a b)) (Pset.diff a' b')
        && Pset.subset a b = Pset.subset a' b'
        && Pset.cardinal a = Pset.cardinal a');
    Test.make ~name:"differential: extrema/nth shift-equivariant" ~count:300
      arb_small (fun s ->
        let s' = shift64 s in
        Pset.min_elt s' = Option.map (( + ) 64) (Pset.min_elt s)
        && List.for_all
             (fun i -> Pset.choose_nth s' i = Pset.choose_nth s i + 64)
             (List.mapi (fun i _ -> i) (Pset.to_list s)));
  ]

let tests =
  [
    Alcotest.test_case "basic" `Quick basic;
    Alcotest.test_case "algebra" `Quick algebra;
    Alcotest.test_case "extrema" `Quick extrema;
    Alcotest.test_case "enumeration" `Quick enumeration;
    Alcotest.test_case "out-of-range" `Quick out_of_range;
    Alcotest.test_case "out-of-range on both representations" `Quick
      out_of_range_both_representations;
    Alcotest.test_case "representation boundary" `Quick representation;
    Alcotest.test_case "wide basics" `Quick wide_basics;
  ]
  @ List.map QCheck_alcotest.to_alcotest qcheck_props
