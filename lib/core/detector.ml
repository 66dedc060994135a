type t = {
  name : string;
  next : Fault_history.t -> Pset.t array;
}

let make ~name next = { name; next }

let next d history = d.next history

let none =
  make ~name:"failure-free" (fun h ->
      Array.make (Fault_history.n h) Pset.empty)

let of_schedule ?after rounds =
  let table = Array.of_list rounds in
  let fallback h =
    match after with
    | Some d -> d
    | None ->
      if Array.length table > 0 then table.(Array.length table - 1)
      else Array.make (Fault_history.n h) Pset.empty
  in
  make ~name:"schedule" (fun h ->
      let r = Fault_history.rounds h in
      if r < Array.length table then table.(r) else fallback h)

(* One shared failure-free row for the whole tail. *)
let quiet_after ~n ~rounds d =
  let quiet = Array.make n Pset.empty in
  make ~name:d.name (fun sofar ->
      if Fault_history.rounds sofar < rounds then d.next sofar else quiet)

(* The pinned rounds are read off the history on demand, so no schedule
   list is ever built. *)
let of_history h =
  quiet_after ~n:(Fault_history.n h) ~rounds:(Fault_history.rounds h)
    (make ~name:"schedule" (fun sofar ->
         Fault_history.round_sets h ~round:(Fault_history.rounds sofar + 1)))

let constant ~n:_ d = make ~name:"constant" (fun _ -> d)

let map ~name f d = make ~name (fun h -> f h (d.next h))
