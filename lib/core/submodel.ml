type verdict = Implies | Counterexample of Fault_history.t

let round_assignments ~n =
  let proper = List.filter (fun s -> not (Pset.equal s (Pset.full n))) (Pset.subsets (Pset.full n)) in
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
(* Named-predicate lattice over one shared enumeration.                *)
(* ------------------------------------------------------------------ *)

(* Checking all O(c²) implication pairs with [check_exhaustive] repeats
   the same exponential history walk c² times.  Instead: enumerate every
   history of depth 0..rounds once, record for each named predicate the
   bitset of histories it accepts, and answer every order query as a
   bitset inclusion.  c predicates cost c·|space| predicate evaluations
   total instead of c²·|space|. *)

type lattice = {
  l_n : int;
  l_rounds : int;
  l_names : string array;
  l_sat : Bytes.t array;  (* l_sat.(p) bit h: predicate p holds on history h *)
  l_total : int;  (* histories enumerated: sum of |assignments|^d, d=0..rounds *)
}

let bit_set bytes i =
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  Bytes.unsafe_set bytes byte
    (Char.chr (Char.code (Bytes.unsafe_get bytes byte) lor mask))

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
  let assignments = round_assignments ~n in
  let per_round = List.length assignments in
  let total =
    let rec sum acc pow d = if d > rounds then acc else sum (acc + pow) (pow * per_round) (d + 1) in
    sum 0 1 0
  in
  let sat = Array.map (fun _ -> Bytes.make ((total + 7) / 8) '\000') names in
  let idx = ref 0 in
  let rec explore history depth =
    let h = !idx in
    incr idx;
    Array.iteri
      (fun p pred -> if Predicate.holds pred history then bit_set sat.(p) h)
      preds;
    if depth < rounds then
      List.iter
        (fun d -> explore (Fault_history.append history d) (depth + 1))
        assignments
  in
  explore (Fault_history.empty ~n) 0;
  { l_n = n; l_rounds = rounds; l_names = names; l_sat = sat; l_total = total }

let index l name =
  let rec find i =
    if i >= Array.length l.l_names then
      invalid_arg
        (Printf.sprintf "Submodel.lattice: unknown predicate %S, expected one of: %s"
           name
           (String.concat ", " (Array.to_list l.l_names)))
    else if l.l_names.(i) = name then i
    else find (i + 1)
  in
  find 0

let implies l a b = bytes_subset l.l_sat.(index l a) l.l_sat.(index l b)

let equivalent l a b =
  Bytes.equal l.l_sat.(index l a) l.l_sat.(index l b)

let strictly_stronger l a b =
  let sa = l.l_sat.(index l a) and sb = l.l_sat.(index l b) in
  bytes_subset sa sb && not (Bytes.equal sa sb)

let bytes_inter a b =
  let out = Bytes.copy a in
  for i = 0 to Bytes.length a - 1 do
    Bytes.unsafe_set out i
      (Char.chr
         (Char.code (Bytes.unsafe_get a i)
         land Char.code (Bytes.unsafe_get b i)))
  done;
  out

(* The whole space as a bitset: bits 0..total-1 set, padding bits clear
   (so it compares correctly against per-predicate sets). *)
let full_sat l =
  let bytes = Bytes.make ((l.l_total + 7) / 8) '\000' in
  for i = 0 to l.l_total - 1 do
    bit_set bytes i
  done;
  bytes

let meet_sat l names =
  match names with
  | [] -> full_sat l
  | first :: rest ->
    List.fold_left
      (fun acc name -> bytes_inter acc l.l_sat.(index l name))
      (Bytes.copy l.l_sat.(index l first))
      rest

let minimal_conjuncts l names =
  List.iter (fun n -> ignore (index l n)) names;
  let rec prune kept = function
    | [] -> List.rev kept
    | name :: rest ->
      let others = List.rev_append kept rest in
      if others <> [] && bytes_subset (meet_sat l others) l.l_sat.(index l name)
      then prune kept rest
      else prune (name :: kept) rest
  in
  prune [] names

let weakest l names =
  List.iter (fun n -> ignore (index l n)) names;
  List.filter
    (fun m -> not (List.exists (fun u -> strictly_stronger l m u) names))
    names
