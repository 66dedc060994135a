type verdict = Implies | Counterexample of Fault_history.t

let proper_subsets ~n =
  List.filter (fun s -> not (Pset.equal s (Pset.full n))) (Pset.subsets (Pset.full n))

let round_assignments ~n =
  let proper = proper_subsets ~n in
  let rec build i =
    if i = n then [ [] ]
    else
      let rest = build (i + 1) in
      List.concat_map (fun s -> List.map (fun tail -> s :: tail) rest) proper
  in
  List.map Array.of_list (build 0)

let check_exhaustive ~n ~rounds a b =
  let assignments = round_assignments ~n in
  let exception Found of Fault_history.t in
  let rec explore history depth =
    if Predicate.holds a history then begin
      if not (Predicate.holds b history) then raise (Found history);
      if depth < rounds then
        List.iter
          (fun d -> explore (Fault_history.append history d) (depth + 1))
          assignments
    end
  in
  match explore (Fault_history.empty ~n) 0 with
  | () -> Implies
  | exception Found h -> Counterexample h

let check_sampled rng ~samples ~rounds ~gen ~n a b =
  let exception Found of Fault_history.t in
  try
    for _ = 1 to samples do
      let detector = gen (Dsim.Rng.split rng) in
      let history = ref (Fault_history.empty ~n) in
      for _ = 1 to rounds do
        history := Fault_history.append !history (Detector.next detector !history)
      done;
      if Predicate.holds a !history && not (Predicate.holds b !history) then
        raise (Found !history)
    done;
    Implies
  with Found h -> Counterexample h

(* ------------------------------------------------------------------ *)
(* Named-predicate lattice over one walk of the orbit representatives.  *)
(* ------------------------------------------------------------------ *)

(* Checking all O(c²) implication pairs with [check_exhaustive] repeats
   the same exponential history walk c² times.  Instead: walk the space
   once, record for each named predicate the bitset of histories it
   accepts, and answer every order query as a bitset inclusion.

   The walk visits one history per S_n orbit.  Renaming the processes by
   π maps h to π·h with D'(π i, r) = π(D(i, r)).  Every predicate the
   lattice is built over accepts h iff it accepts π·h, so its accept set
   is a union of orbits and inclusion between accept sets is inclusion
   between their representatives.  The representative of an orbit is its
   first history in depth-first order: the lexicographically least
   sequence of round-assignment indices.

   h·x is a representative iff h is one and no π fixing h maps x below
   x: a π that moves h maps it above h, which decides the comparison
   before round x.  So the walk never enters the subtree under a
   non-representative, and among a representative's children it marks,
   for each representative child x, the images of x under the
   stabiliser of h; a child still unmarked when reached is the next
   representative. *)

type lattice = {
  l_names : string array;
  l_sat : Bytes.t array;  (* l_sat.(p) bit o: predicate p holds on representative o *)
}

let bit_set bytes i =
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  Bytes.unsafe_set bytes byte
    (Char.chr (Char.code (Bytes.unsafe_get bytes byte) lor mask))

let bit_mem bytes i =
  Char.code (Bytes.unsafe_get bytes (i lsr 3)) land (1 lsl (i land 7)) <> 0

(* a ⊆ b as bitsets (trailing padding bits are zero on both sides). *)
let bytes_subset a b =
  let len = Bytes.length a in
  let rec go i =
    i >= len
    || (Char.code (Bytes.unsafe_get a i)
          land lnot (Char.code (Bytes.unsafe_get b i))
        = 0
       && go (i + 1))
  in
  go 0

let permutations n =
  let rec go = function
    | [] -> [ [] ]
    | pool ->
      List.concat_map
        (fun x -> List.map (List.cons x) (go (List.filter (( <> ) x) pool)))
        pool
  in
  List.map Array.of_list (go (List.init n Fun.id))

(* A round assignment's index is its digits in base P = 2^n − 1,
   process 0's most significant, digit i the rank of D(i) among the
   proper subsets ({!round_assignments}' order).  π moves digit d at
   place i to the rank of π(D) at place π i, so π's renaming table holds
   that term for every (i, d) and an image index is a sum of n lookups. *)
let image table ~ranks digits =
  let x = ref 0 in
  for i = 0 to Array.length digits - 1 do
    x := !x + Array.unsafe_get table ((i * ranks) + Array.unsafe_get digits i)
  done;
  !x

let lattice ~n ~rounds named =
  if named = [] then invalid_arg "Submodel.lattice: no predicates";
  let names = Array.of_list (List.map fst named) in
  let preds = Array.of_list (List.map snd named) in
  let seen = Hashtbl.create 16 in
  Array.iter
    (fun name ->
      if Hashtbl.mem seen name then
        invalid_arg (Printf.sprintf "Submodel.lattice: duplicate name %S" name);
      Hashtbl.add seen name ())
    names;
  let proper = Array.of_list (proper_subsets ~n) in
  let ranks = Array.length proper in
  let place = Array.make n 1 in
  for i = n - 2 downto 0 do
    place.(i) <- place.(i + 1) * ranks
  done;
  let per_round = place.(0) * ranks in
  let code rename s = Pset.fold (fun p acc -> acc lor (1 lsl rename p)) s 0 in
  let rank = Array.make (1 lsl n) 0 in
  Array.iteri (fun d s -> rank.(code Fun.id s) <- d) proper;
  let tables =
    List.map
      (fun pi ->
        Array.init (n * ranks) (fun k ->
            rank.(code (Array.get pi) proper.(k mod ranks)) * place.(pi.(k / ranks))))
      (permutations n)
  in
  let sat = Array.map (fun _ -> Bytes.make 64 '\000') preds in
  let reps = ref 0 in
  let record history =
    let o = !reps in
    incr reps;
    Array.iteri
      (fun p pred ->
        if o lsr 3 = Bytes.length sat.(p) then
          sat.(p) <- Bytes.cat sat.(p) (Bytes.make (Bytes.length sat.(p)) '\000');
        if Predicate.holds pred history then bit_set sat.(p) o)
      preds
  in
  let rec walk history depth stabiliser =
    record history;
    if depth < rounds then begin
      let marked = Bytes.make ((per_round + 7) / 8) '\000' in
      for x = 0 to per_round - 1 do
        if not (bit_mem marked x) then begin
          let digits = Array.init n (fun i -> x / place.(i) mod ranks) in
          let fixing =
            List.filter
              (fun table ->
                let y = image table ~ranks digits in
                bit_set marked y;
                y = x)
              stabiliser
          in
          walk
            (Fault_history.append history (Array.map (Array.get proper) digits))
            (depth + 1) fixing
        end
      done
    end
  in
  walk (Fault_history.empty ~n) 0 tables;
  let bytes = (!reps + 7) / 8 in
  { l_names = names; l_sat = Array.map (fun b -> Bytes.sub b 0 bytes) sat }

let rec find_name names name i =
  if i >= Array.length names then -1
  else if String.equal names.(i) name then i
  else find_name names name (i + 1)

let sat l name =
  match find_name l.l_names name 0 with
  | -1 ->
    invalid_arg
      (Printf.sprintf "Submodel.lattice: unknown predicate %S, expected one of: %s"
         name
         (String.concat ", " (Array.to_list l.l_names)))
  | i -> l.l_sat.(i)

let implies l a b = bytes_subset (sat l a) (sat l b)

let equivalent l a b = Bytes.equal (sat l a) (sat l b)

let strictly_stronger l a b =
  let sa = sat l a and sb = sat l b in
  bytes_subset sa sb && not (Bytes.equal sa sb)

(* [⋂ others ⊆ target] for a nonempty [others], one byte at a time and
   without building the meet: the order queries run per derivation, so
   they allocate no bitset. *)
let rec meet_byte others i acc =
  match others with
  | [] -> acc
  | (_, s) :: rest ->
    meet_byte rest i (acc land Char.code (Bytes.unsafe_get s i))

let rec meet_subset others target i =
  i >= Bytes.length target
  || meet_byte others i 0xff land lnot (Char.code (Bytes.unsafe_get target i)) = 0
     && meet_subset others target (i + 1)

let minimal_conjuncts l names =
  let named = List.map (fun name -> (name, sat l name)) names in
  let rec prune kept = function
    | [] -> List.rev_map fst kept
    | ((_, s) as conjunct) :: rest -> (
      match List.rev_append kept rest with
      | [] -> prune (conjunct :: kept) rest
      | others ->
        if meet_subset others s 0 then prune kept rest
        else prune (conjunct :: kept) rest)
  in
  prune [] named

let weakest l names =
  List.iter (fun n -> ignore (sat l n)) names;
  List.filter
    (fun m -> not (List.exists (fun u -> strictly_stronger l m u) names))
    names
