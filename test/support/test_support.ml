module Pset = Rrfd.Pset
module H = Rrfd.Fault_history

let pset = Pset.of_list

let rng_of seed = Dsim.Rng.create seed

let ok_exn = function Ok v -> v | Error e -> Alcotest.fail e

let pset_t = Alcotest.testable Pset.pp Pset.equal

let history_t = Alcotest.testable H.pp H.equal

let sized_seed ?(min_n = 2) ~max_n () =
  QCheck.(pair (int_range min_n max_n) (int_bound 100000))

let sized_seed_plus ?(min_n = 2) ~max_n extra =
  QCheck.(triple (int_range min_n max_n) (int_bound 100000) extra)

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

module Compat_fixture = Compat_fixture
