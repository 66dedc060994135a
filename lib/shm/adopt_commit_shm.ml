module Ac = Rrfd.Adopt_commit

type cell = First of int | Second of int Ac.vote

module E = Exec.Make (struct
  type t = cell
end)

type result = { outcomes : int Ac.outcome array; steps : int }

let run ~inputs ~schedule =
  let n = Array.length inputs in
  if n < 1 then invalid_arg "Adopt_commit_shm.run: no processes";
  let outcomes = Array.make n (Ac.Adopt min_int) in
  (* Locations: [0, n) first-round cells, [n, 2n) second-round cells. *)
  let owner loc = loc mod n in
  (* A collect reads the [n] cells of one round (highest first) into a
     view: the unwritten cells are its fault set.  The writer's own cell
     is always written, so the rules never need an own item. *)
  let collect base extract =
    let cells = Array.make n None in
    let unwritten = ref Rrfd.Pset.empty in
    for c = n - 1 downto 0 do
      match E.read (base + c) with
      | Some cell -> cells.(c) <- Some (extract cell)
      | None -> unwritten := Rrfd.Pset.add c !unwritten
    done;
    Rrfd.View.of_option_array cells ~faulty:!unwritten
  in
  let body ~proc =
    let own = inputs.(proc) in
    E.write proc (First own);
    let view1 =
      collect 0 (function First v -> v | Second _ -> assert false)
    in
    let vote = Ac.propose ~equal:Int.equal ~me:proc ~own view1 Fun.id in
    E.write (n + proc) (Second vote);
    let view2 =
      collect n (function Second v -> v | First _ -> assert false)
    in
    outcomes.(proc) <-
      Ac.resolve ~equal:Int.equal ~me:proc ~own ~own_vote:vote view2 Fun.id
  in
  let outcome = E.run ~enforce_swmr:owner ~n_procs:n ~n_locs:(2 * n) ~schedule body in
  { outcomes; steps = outcome.E.steps }
