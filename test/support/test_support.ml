module Pset = Rrfd.Pset
module H = Rrfd.Fault_history

let pset = Pset.of_list

let rng_of seed = Dsim.Rng.create seed

let ok_exn = function Ok v -> v | Error e -> Alcotest.fail e

let pset_t = Alcotest.testable Pset.pp Pset.equal

let history_t = Alcotest.testable H.pp H.equal

(* [QCheck.int_range] shrinks with [Shrink.int], toward 0 and so below
   [lo]; shrinking the offset from [lo] keeps every candidate in range. *)
let int_range lo hi =
  QCheck.make ~print:QCheck.Print.int
    ~shrink:(fun x yield ->
      QCheck.Shrink.int (x - lo) (fun d -> yield (lo + d)))
    (QCheck.Gen.int_range lo hi)

let sized_seed ?(min_n = 2) ~max_n () =
  QCheck.pair (int_range min_n max_n) (QCheck.int_bound 100000)

let sized_seed_plus ?(min_n = 2) ~max_n extra =
  QCheck.triple (int_range min_n max_n) (QCheck.int_bound 100000) extra

let pset_gen ~n =
  QCheck.Gen.(
    list_repeat n bool >|= fun flags ->
    snd
      (List.fold_left
         (fun (i, s) b -> (i + 1, if b then Pset.add i s else s))
         (0, Pset.empty) flags))

let pset_arb ~n =
  QCheck.make (pset_gen ~n) ~print:Pset.to_string ~shrink:(fun s yield ->
      List.iter (fun e -> yield (Pset.remove e s)) (Pset.to_list s))

(* Detectors never output D = S (not every process can be late), so history
   generators draw proper subsets: a full set has one sampled element
   knocked out. *)
let proper_pset_gen ~n =
  QCheck.Gen.(
    pair (pset_gen ~n) (int_bound (max 0 (n - 1))) >|= fun (s, i) ->
    if Pset.equal s (Pset.full n) then Pset.remove (Pset.choose_nth s i) s
    else s)

let round_gen ~n =
  QCheck.Gen.(list_repeat n (proper_pset_gen ~n) >|= Array.of_list)

let history_gen ?(max_rounds = 4) ~n =
  QCheck.Gen.(
    int_bound max_rounds >>= fun rounds ->
    list_repeat rounds (round_gen ~n) >|= H.of_rounds ~n)

let history_arb ?(min_n = 2) ?(max_n = 5) ?max_rounds () =
  QCheck.make
    QCheck.Gen.(int_range min_n max_n >>= fun n -> history_gen ?max_rounds ~n)
    ~print:H.to_string_compact
    ~shrink:(fun h yield -> List.iter yield (Check.Shrink.candidates h))

(* Process [i] becomes [perm.(i)] everywhere: D'(perm i, r) = perm(D(i, r)). *)
let rename perm h =
  let n = H.n h in
  H.fold_rounds
    (fun _ sets acc ->
      let out = Array.make n Pset.empty in
      Array.iteri
        (fun i s ->
          out.(perm.(i)) <- Pset.fold (fun p acc -> Pset.add perm.(p) acc) s Pset.empty)
        sets;
      out :: acc)
    h []
  |> List.rev |> H.of_rounds ~n

let perm_gen ~n = QCheck.Gen.(shuffle_l (List.init n Fun.id) >|= Array.of_list)

(* dune runtest runs the test executable in test/; dune exec runs it
   from the workspace root — accept both. *)
let check_fixture ~what ~file actual =
  let path =
    List.find Sys.file_exists [ "fixtures/" ^ file; "test/fixtures/" ^ file ]
  in
  let expected = In_channel.with_open_bin path In_channel.input_all in
  if not (String.equal expected actual) then begin
    let rec first_diff i = function
      | e :: es, a :: aas ->
        if String.equal e a then first_diff (i + 1) (es, aas) else Some (i, e, a)
      | e :: _, [] -> Some (i, e, "<end of output>")
      | [], a :: _ -> Some (i, "<end of fixture>", a)
      | [], [] -> None
    in
    match
      first_diff 1
        (String.split_on_char '\n' expected, String.split_on_char '\n' actual)
    with
    | Some (line, e, a) ->
      Alcotest.failf
        "%s diverged from the pre-refactor fixture %s at line %d:\n\
         fixture: %s\n\
         current: %s" what file line e a
    | None -> Alcotest.fail "fixture mismatch (line endings?)"
  end

module Compat_fixture = Compat_fixture

module Round_layer_fixture = Round_layer_fixture
module Msgnet_timing_fixture = Msgnet_timing_fixture

module Transcript_fixture = Transcript_fixture

module Oracle = Oracle
