type t = {
  id : string;
  title : string;
  claim : string;
  header : string list;
  rows : string list list;
  notes : string list;
  counters : (string * Runtime.Stats.t) list;
}

let cell_int = string_of_int

let cell_float v = Printf.sprintf "%.2f" v

let cell_bool b = if b then "yes" else "NO"

(* Per-trial engine counters, summarised per field.  The field order of
   Counters.to_fields is kept so every table reports work in the same
   vocabulary (rounds, messages, detector-queries, predicate-checks). *)
let counter_stats trials =
  if Array.length trials = 0 then []
  else
    let labels = List.map fst (Rrfd.Counters.to_fields trials.(0)) in
    List.map
      (fun label ->
        let per_trial =
          Array.map
            (fun c -> List.assoc label (Rrfd.Counters.to_fields c))
            trials
        in
        (label, Runtime.Stats.of_ints per_trial))
      labels

(* Width of a string as displayed: count UTF-8 code points rather than
   bytes so the box drawing stays aligned with ⌊, ≤, etc. *)
let display_width s =
  let count = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr count) s;
  !count

let pad width s = s ^ String.make (max 0 (width - display_width s)) ' '

let print t =
  Printf.printf "\n== %s: %s ==\n" t.id t.title;
  Printf.printf "claim: %s\n" t.claim;
  let columns = List.length t.header in
  let widths = Array.make columns 0 in
  List.iteri (fun i h -> widths.(i) <- display_width h) t.header;
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> if i < columns then widths.(i) <- max widths.(i) (display_width cell))
        row)
    t.rows;
  let line cells =
    let padded = List.mapi (fun i c -> pad widths.(i) c) cells in
    Printf.printf "  %s\n" (String.concat "  " padded)
  in
  line t.header;
  line (List.map (fun w -> String.make w '-') (Array.to_list widths));
  List.iter line t.rows;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) t.notes;
  List.iter
    (fun (label, s) ->
      Printf.printf "  work: %-16s per trial %s\n" label
        (Format.asprintf "%a" Runtime.Stats.pp s))
    t.counters;
  if not (List.exists (List.exists (String.equal "NO")) t.rows) then
    Printf.printf "  [%s OK]\n" t.id
  else Printf.printf "  [%s FAILED]\n" t.id

let ok t = not (List.exists (List.exists (String.equal "NO")) t.rows)

let to_json ~seed ?extra t =
  let open Report.Codec in
  Report.Json.Obj
    ([
       ("id", string.enc t.id);
       ("seed", int.enc seed);
       ("header", (list string).enc t.header);
       ("rows", (list (list string)).enc t.rows);
       ("ok", bool.enc (ok t));
     ]
    @ Option.to_list extra)
