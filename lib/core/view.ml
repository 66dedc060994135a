type 'm t = {
  n : int;
  full : Pset.t;  (* hoisted universe: computed once, reused every set *)
  mutable msgs : 'm array;  (* borrowed; [||] until the first set *)
  mutable heard : Pset.t;
  mutable faulty : Pset.t;
}

let[@inline] n v = v.n

let[@inline] faulty v = v.faulty

let[@inline] heard v = v.heard

let[@inline] mem v j =
  if j < 0 || j >= v.n then invalid_arg "View.mem: process out of range";
  Pset.mem j v.heard

let[@inline] get v j =
  if j < 0 || j >= v.n then invalid_arg "View.get: process out of range";
  if Pset.mem j v.heard then v.msgs.(j)
  else invalid_arg "View.get: process not heard from"

let fold f v init = Pset.fold (fun j acc -> f j v.msgs.(j) acc) v.heard init

let iter f v = Pset.iter (fun j -> f j v.msgs.(j)) v.heard

let to_option_array v =
  Array.init v.n (fun j -> if Pset.mem j v.heard then Some v.msgs.(j) else None)

let create ~n =
  if n < 1 || n > Pset.max_universe then invalid_arg "View.create: bad n";
  { n; full = Pset.full n; msgs = [||]; heard = Pset.empty; faulty = Pset.full n }

let set v ~msgs ~faulty =
  if Array.length msgs <> v.n then invalid_arg "View.set: wrong buffer length";
  if not (Pset.subset faulty v.full) then
    invalid_arg "View.set: fault set outside the system";
  v.msgs <- msgs;
  v.faulty <- faulty;
  v.heard <- Pset.diff v.full faulty

let[@inline] unsafe_set v ~msgs ~faulty =
  v.msgs <- msgs;
  v.faulty <- faulty;
  v.heard <- Pset.diff v.full faulty

let of_option_array arr ~faulty =
  let n = Array.length arr in
  let v = create ~n in
  if not (Pset.subset faulty v.full) then
    invalid_arg "View.of_option_array: fault set outside the system";
  let heard = Pset.diff v.full faulty in
  let filler = ref None in
  Array.iteri
    (fun j slot ->
      match (slot, Pset.mem j heard) with
      | Some _, true -> (
        match !filler with None -> filler := slot | Some _ -> ())
      | None, false -> ()
      | Some _, false ->
        invalid_arg "View.of_option_array: message from a faulty process"
      | None, true ->
        invalid_arg "View.of_option_array: heard slot holds no message")
    arr;
  let msgs =
    match !filler with
    | None -> [||] (* heard nobody: the reading API never indexes msgs *)
    | Some fill ->
      Array.map (function Some m -> m | None -> fill) arr
  in
  v.msgs <- msgs;
  v.faulty <- faulty;
  v.heard <- heard;
  v
