(* Composable network fault-injection policies.  See adversary.mli.

   Parsing deliberately mirrors Check.Spec's [name:key=val,...] grammar
   (the dependency points the other way — Check.Spec.adversary delegates
   here), so predicates, properties and adversaries share one vocabulary
   across CLI flags, table rows and JSON artifacts. *)

type blocks = Split_at of int | Blocks of Rrfd.Pset.t list

type byz_behaviour = { equivocate : bool; corrupt : bool; forge : bool }

type atom =
  | Drop of { p : float }
  | Duplicate of { p : float; copies : int }
  | Spike of { p : float; factor : float }
  | Reorder of { p : float; window : float }
  | Partition of { at : float; heal : float; blocks : blocks }
  | Byz of { members : Rrfd.Pset.t; behaviour : byz_behaviour }

(* The atoms as given, plus the same atoms split once into one array
   per pass of the delay plan, each in atom order: partitions (no
   draws), drops, the delay modifiers (spikes and reorders) and
   duplications.  [plan_into] walks only these. *)
type t = {
  atoms : atom list;
  noop : bool;
  cuts : atom array;
  drops : atom array;
  shifts : atom array;
  dups : atom array;
}

let make atoms =
  let only keep = Array.of_list (List.filter keep atoms) in
  {
    atoms;
    noop = atoms = [];
    cuts = only (function Partition _ -> true | _ -> false);
    drops = only (function Drop _ -> true | _ -> false);
    shifts = only (function Spike _ | Reorder _ -> true | _ -> false);
    dups = only (function Duplicate _ -> true | _ -> false);
  }

let none = make []
let is_noop t = t.noop

let spec_names =
  "none, drop:p=<pct>, dup:p=<pct>,copies=<k>, spike:p=<pct>,factor=<x>, "
  ^ "reorder:p=<pct>,window=<w>, partition:at=<t0>,heal=<t1>,left=<k>, "
  ^ "byz:m=<k>,equiv=<0|1>,corrupt=<0|1>,forge=<0|1>"

(* [name:k1=v1,k2=v2] ({!Rrfd.Spec_syntax}, read leniently: blanks
   around names, keys and values are trimmed) with small non-negative
   integer values; probabilities are percentages so spec strings stay
   integer-only like Check.Spec's. *)
let parse_atom s =
  let ( let* ) = Result.bind in
  let* name, params =
    Result.map_error
      (fun e -> "adversary " ^ e)
      Rrfd.Spec_syntax.(parse ~lenient:true Int s)
  in
  let param key default = Option.value ~default (List.assoc_opt key params) in
  let known allowed =
    match List.find_opt (fun (k, _) -> not (List.mem k allowed)) params with
    | Some (k, _) ->
        Error (Printf.sprintf "adversary %s: unknown parameter %S" name k)
    | None -> Ok ()
  in
  let pct key default = float_of_int (param key default) /. 100.0 in
  match name with
  | "none" ->
      let* () = known [] in
      Ok None
  | "drop" ->
      let* () = known [ "p" ] in
      Ok (Some (Drop { p = pct "p" 20 }))
  | "dup" | "duplicate" ->
      let* () = known [ "p"; "copies" ] in
      Ok (Some (Duplicate { p = pct "p" 20; copies = max 1 (param "copies" 1) }))
  | "spike" ->
      let* () = known [ "p"; "factor" ] in
      Ok
        (Some
           (Spike
              { p = pct "p" 10; factor = float_of_int (max 1 (param "factor" 10)) }))
  | "reorder" ->
      let* () = known [ "p"; "window" ] in
      Ok
        (Some
           (Reorder
              { p = pct "p" 25; window = float_of_int (max 1 (param "window" 10)) }))
  | "partition" ->
      let* () = known [ "at"; "heal"; "left" ] in
      let at = float_of_int (param "at" 5)
      and heal = float_of_int (param "heal" 50)
      and left = max 1 (param "left" 1) in
      if heal <= at then
        Error
          (Printf.sprintf "adversary %s: heal=%g must exceed at=%g" name heal at)
      else Ok (Some (Partition { at; heal; blocks = Split_at left }))
  | "byz" ->
      (* Byzantine membership follows the same deterministic low-id
         convention as partition's [left=k]: processes 0..m-1 misbehave.
         [m=0] is the explicit "nobody is Byzantine" row of a grid. *)
      let* () = known [ "m"; "equiv"; "corrupt"; "forge" ] in
      let m = param "m" 1 in
      let flag key default = param key default <> 0 in
      let behaviour =
        {
          equivocate = flag "equiv" 1;
          corrupt = flag "corrupt" 0;
          forge = flag "forge" 0;
        }
      in
      let members =
        List.fold_left
          (fun acc p -> Rrfd.Pset.add p acc)
          Rrfd.Pset.empty
          (List.init m (fun p -> p))
      in
      Ok (Some (Byz { members; behaviour }))
  | _ ->
      Error
        (Printf.sprintf "unknown adversary %S, expected one of: %s" name
           spec_names)

let of_spec s =
  let s = String.trim s in
  if s = "" then Error "empty adversary spec"
  else
    let ( let* ) = Result.bind in
    let* atoms =
      String.split_on_char '+' s
      |> List.fold_left
           (fun acc atom ->
             let* acc = acc in
             let* parsed = parse_atom (String.trim atom) in
             match parsed with None -> Ok acc | Some a -> Ok (a :: acc))
           (Ok [])
    in
    Ok (make (List.rev atoms))

let cuts blocks ~from ~to_ =
  match blocks with
  | Split_at k -> from < k <> (to_ < k)
  | Blocks bs ->
      let find p = List.find_opt (fun b -> Rrfd.Pset.mem p b) bs in
      (match (find from, find to_) with
      | Some bf, Some bt -> not (Rrfd.Pset.equal bf bt)
      | _ -> false)

let partitioned t ~now ~from ~to_ =
  let cut = ref false and k = ref 0 in
  while (not !cut) && !k < Array.length t.cuts do
    (match t.cuts.(!k) with
    | Partition { at; heal; blocks } ->
        cut := now >= at && now < heal && cuts blocks ~from ~to_
    | _ -> ());
    incr k
  done;
  !cut

let byzantine t ~n =
  List.fold_left
    (fun acc -> function
      | Byz { members; _ } -> Rrfd.Pset.union acc members
      | _ -> acc)
    Rrfd.Pset.empty t.atoms
  |> Rrfd.Pset.inter (Rrfd.Pset.full n)

let byz_behaviour t p =
  List.fold_left
    (fun acc atom ->
      match atom with
      | Byz { members; behaviour } when Rrfd.Pset.mem p members -> (
          match acc with
          | None -> Some behaviour
          | Some b ->
              Some
                {
                  equivocate = b.equivocate || behaviour.equivocate;
                  corrupt = b.corrupt || behaviour.corrupt;
                  forge = b.forge || behaviour.forge;
                })
      | _ -> acc)
    None t.atoms

let max_copies t =
  Array.fold_left
    (fun acc -> function Duplicate { copies; _ } -> acc + copies | _ -> acc)
    1 t.dups

(* [Dsim.Rng.float rng 1.0] computed here from the same 53 bits, so the
   draw stays unboxed without cross-module inlining. *)
let[@inline] unit_draw rng =
  Float.of_int (Dsim.Rng.bits53 rng) /. 9007199254740992.0

(* The first drop atom whose coin comes up, in atom order: the draws
   stop there. *)
let dropped t rng =
  let hit = ref false and k = ref 0 in
  while (not !hit) && !k < Array.length t.drops do
    (match t.drops.(!k) with
    | Drop { p } -> hit := unit_draw rng < p
    | _ -> ());
    incr k
  done;
  !hit

(* Atoms consume the rng in list order; every branch draws the same
   number of variates whatever the earlier outcomes, except drops, which
   short-circuit the whole plan (also deterministically).  The passes
   run in a fixed order — drops, then spikes and reorders, then
   duplications, then one [redraw] per extra copy.  [Byz] atoms never
   touch the delay plan — lying is about content, not timing — so
   adding one leaves the benign delay stream bit-identical. *)
let plan_into t rng ~now ~from ~to_ ~redraw out =
  if
    (Array.length t.cuts > 0 && partitioned t ~now:(now ()) ~from ~to_)
    || dropped t rng
  then 0
  else begin
    let d = ref (Float.Array.get out 0) in
    for k = 0 to Array.length t.shifts - 1 do
      match t.shifts.(k) with
      | Spike { p; factor } -> if unit_draw rng < p then d := !d *. factor
      | Reorder { p; window } ->
          let jitter = window *. unit_draw rng in
          if unit_draw rng < p then d := !d +. jitter
      | _ -> ()
    done;
    let extras = ref 0 in
    for k = 0 to Array.length t.dups - 1 do
      match t.dups.(k) with
      | Duplicate { p; copies } ->
          let c = 1 + Dsim.Rng.int rng copies in
          if unit_draw rng < p then extras := !extras + c
      | _ -> ()
    done;
    Float.Array.set out 0 !d;
    for k = 1 to !extras do
      redraw out k
    done;
    1 + !extras
  end

let plan t rng ~now ~from ~to_ ~delay ~redraw =
  let out = Float.Array.make (max_copies t) delay in
  let redraw out k = Float.Array.set out k (redraw ()) in
  let copies = plan_into t rng ~now:(fun () -> now) ~from ~to_ ~redraw out in
  List.init copies (Float.Array.get out)
