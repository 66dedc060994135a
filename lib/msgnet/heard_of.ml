module Pset = Rrfd.Pset

(* Per process, the heard-from and lied-to sets of completed rounds:
   process [i]'s round [r] sits at slot [i * cap + r - 1] of two flat
   arrays that advance in lockstep, [count.(i)] rounds of each valid.
   When some process outgrows [cap], both arrays are rebuilt at twice
   the capacity.  "Silent toward i" (complement of heard) and "lied to
   i" (arrived, but with non-canonical content) are deliberately
   separate records — a crash looks like the former everywhere, a
   Byzantine process can be cleanly one, the other, or both. *)
type t = {
  n : int;
  count : int array;
  mutable cap : int;
  mutable heard_rows : Pset.t array;
  mutable lied_rows : Pset.t array;
}

let create ~n =
  if n < 1 || n > Pset.max_universe then invalid_arg "Heard_of.create: bad n";
  let cap = 4 in
  {
    n;
    count = Array.make n 0;
    cap;
    heard_rows = Array.make (n * cap) Pset.empty;
    lied_rows = Array.make (n * cap) Pset.empty;
  }

let completed t i =
  if i < 0 || i >= t.n then invalid_arg "Heard_of.completed: bad proc";
  t.count.(i)

let grow t =
  let cap = 2 * t.cap in
  let move rows =
    let grown = Array.make (t.n * cap) Pset.empty in
    for i = 0 to t.n - 1 do
      Array.blit rows (i * t.cap) grown (i * cap) t.count.(i)
    done;
    grown
  in
  t.heard_rows <- move t.heard_rows;
  t.lied_rows <- move t.lied_rows;
  t.cap <- cap

let note t i ~round ?(lied = Pset.empty) ~heard () =
  if i < 0 || i >= t.n then invalid_arg "Heard_of.note: bad proc";
  if round <> t.count.(i) + 1 then
    invalid_arg "Heard_of.note: rounds must be noted in order";
  if not (Pset.subset heard (Pset.full t.n)) then
    invalid_arg "Heard_of.note: heard set outside the system";
  (* A lie is only observable on a message that arrived. *)
  if not (Pset.subset lied heard) then
    invalid_arg "Heard_of.note: lied set must be within the heard set";
  if round > t.cap then grow t;
  t.heard_rows.((i * t.cap) + round - 1) <- heard;
  t.lied_rows.((i * t.cap) + round - 1) <- lied;
  t.count.(i) <- round

let recorded t rows ~proc ~round =
  if round < 1 || round > t.count.(proc) then None
  else Some rows.((proc * t.cap) + round - 1)

let heard t ~proc ~round =
  if proc < 0 || proc >= t.n then invalid_arg "Heard_of.heard: bad proc";
  recorded t t.heard_rows ~proc ~round

let lied t ~proc ~round =
  if proc < 0 || proc >= t.n then invalid_arg "Heard_of.lied: bad proc";
  recorded t t.lied_rows ~proc ~round

let rounds t = Array.fold_left max 0 t.count

(* Rounds a process never completed constrain nothing: their cells are
   the empty set. *)
let history_of_rows t rows ~cell =
  let r_max = rounds t in
  let h = Rrfd.Fault_history.create ~n:t.n ~capacity:r_max in
  let row = Array.make t.n Pset.empty in
  for r = 0 to r_max - 1 do
    for i = 0 to t.n - 1 do
      row.(i) <-
        (if r < t.count.(i) then cell rows.((i * t.cap) + r) else Pset.empty)
    done;
    ignore (Rrfd.Fault_history.append_in_place h row : Rrfd.Fault_history.t)
  done;
  h

let to_history t =
  let full = Pset.full t.n in
  history_of_rows t t.heard_rows ~cell:(fun h -> Pset.diff full h)

let to_lie_history t = history_of_rows t t.lied_rows ~cell:(fun l -> l)

let to_byz_history t =
  Rrfd.Fault_history.union (to_history t) (to_lie_history t)

let paper_predicates ~f =
  [
    ("P1", Rrfd.Predicate.omission ~f);
    ("P2", Rrfd.Predicate.crash ~f);
    ("P3", Rrfd.Predicate.async_resilient ~f);
    ("P4", Rrfd.Predicate.shared_memory ~f);
    ("P5", Rrfd.Predicate.snapshot ~f);
  ]

let classify ~f history =
  List.map
    (fun (name, p) -> (name, Rrfd.Predicate.holds p history))
    (paper_predicates ~f)

let replay_decisions ~algorithm history =
  let states, _ =
    Rrfd.Engine.states_after ~n:(Rrfd.Fault_history.n history)
      ~rounds:(Rrfd.Fault_history.rounds history) ~algorithm
      ~detector:(Rrfd.Detector.of_history history) ()
  in
  Array.map algorithm.Rrfd.Algorithm.decide states
