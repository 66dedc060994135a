module Pset = Rrfd.Pset

module E = Exec.Make (struct
  type t = int
end)

type result = {
  fault_sets : Rrfd.Pset.t array;
  chosen : int array;
  values_readable : bool;
  steps : int;
}

let one_round ?rng ~n ~k ~schedule () =
  if n < 1 || n > Pset.max_universe then invalid_arg "Thm33.one_round: bad n";
  let obj = Kset_object.create ?rng ~k () in
  let fault_sets = Array.make n Pset.empty in
  let chosen = Array.make n (-1) in
  let readable = ref true in
  (* Locations: [0, n) value cells, [n, 2n) choice cells. *)
  let owner loc = loc mod n in
  let body ~proc =
    E.write proc (1000 + proc);
    let j = Kset_object.propose obj proc in
    chosen.(proc) <- j;
    E.write (n + proc) j;
    let q = ref Pset.empty in
    for c = 0 to n - 1 do
      match E.read (n + c) with
      | Some id -> q := Pset.add id !q
      | None -> ()
    done;
    Pset.iter
      (fun id -> if E.read id = None then readable := false)
      !q;
    fault_sets.(proc) <- Pset.diff (Pset.full n) !q
  in
  let outcome = E.run ~enforce_swmr:owner ~n_procs:n ~n_locs:(2 * n) ~schedule body in
  {
    fault_sets;
    chosen;
    values_readable = !readable;
    steps = outcome.E.steps;
  }
