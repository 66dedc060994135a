type 'a t = { enc : 'a -> Json.t; dec : Json.t -> 'a }

let fail fmt = Printf.ksprintf (fun e -> raise (Json.Error e)) fmt

(* Every way a decoder can reject hostile input: the accessors' shape
   errors, and the integer/history parsers some leaves call. *)
let decode c json =
  match c.dec json with
  | v -> Ok v
  | exception (Json.Error e | Failure e | Invalid_argument e) -> Error e

let of_string c text =
  match Json.of_string text with
  | json -> decode c json
  | exception Json.Error e -> Error e

let to_string ?(pretty = false) c v =
  (if pretty then Json.to_string_pretty else Json.to_string) (c.enc v)

(* ------------------------------------------------------------------ *)
(* Leaves.                                                             *)

let json = { enc = Fun.id; dec = Fun.id }

let int = { enc = (fun i -> Json.Number (float_of_int i)); dec = Json.int }

let float = { enc = (fun v -> Json.Number v); dec = Json.num }

let string = { enc = (fun s -> Json.String s); dec = Json.str }

let bool = { enc = (fun b -> Json.Bool b); dec = Json.bool }

let map ~dec ~enc c =
  { enc = (fun v -> c.enc (enc v)); dec = (fun j -> dec (c.dec j)) }

(* A JSON double holds 53 bits; seeds from [Dsim.Rng.derive_seed] use
   all 63, so they travel as decimal strings. *)
let decimal =
  map string ~enc:string_of_int ~dec:(fun s ->
      match int_of_string_opt s with
      | Some v -> v
      | None -> fail "%S is not a decimal integer" s)

let list c =
  {
    enc = (fun l -> Json.List (List.map c.enc l));
    dec = (fun j -> List.map c.dec (Json.list j));
  }

let array c = map (list c) ~enc:Array.to_list ~dec:Array.of_list

let nullable c =
  {
    enc = (function None -> Json.Null | Some v -> c.enc v);
    dec = (function Json.Null -> None | j -> Some (c.dec j));
  }

let assoc c =
  {
    enc = (fun l -> Json.Obj (List.map (fun (k, v) -> (k, c.enc v)) l));
    dec = (fun j -> List.map (fun (k, v) -> (k, c.dec v)) (Json.obj j));
  }

let history =
  map string ~enc:Rrfd.Fault_history.to_string_compact
    ~dec:Rrfd.Fault_history.of_string_compact

let decisions = array (nullable int)

(* ------------------------------------------------------------------ *)
(* Records: [write] prepends this field's members to the reversed
   members of the fields before it; [read] feeds the constructor its
   arguments in written order.                                         *)

type ('o, 'k) record = {
  write : 'o -> (string * Json.t) list -> (string * Json.t) list;
  read : Json.t -> 'k;
}

let record make = { write = (fun _ acc -> acc); read = (fun _ -> make) }

let header ~kind ~version r =
  {
    write =
      (fun o acc ->
        ("kind", string.enc kind) :: ("version", int.enc version) :: r.write o acc);
    read =
      (fun j ->
        let k = Json.str (Json.member "kind" j) in
        if k <> kind then fail "expected kind %S, got %S" kind k;
        let v = Json.int (Json.member "version" j) in
        if v <> version then fail "unsupported %s version %d" kind v;
        r.read j);
  }

let field name c get r =
  {
    write = (fun o acc -> (name, c.enc (get o)) :: r.write o acc);
    read =
      (fun j ->
        let k = r.read j in
        k (c.dec (Json.member name j)));
  }

let opt name c get r =
  {
    write =
      (fun o acc ->
        let acc = r.write o acc in
        match get o with None -> acc | Some v -> (name, c.enc v) :: acc);
    read =
      (fun j ->
        let k = r.read j in
        k (match Json.member name j with Json.Null -> None | v -> Some (c.dec v)));
  }

let inline c get r =
  {
    write =
      (fun o acc ->
        match c.enc (get o) with
        | Json.Obj members -> List.rev_append members (r.write o acc)
        | _ -> invalid_arg "Codec.inline: not an object codec");
    read =
      (fun j ->
        let k = r.read j in
        k (c.dec j));
  }

let obj r = { enc = (fun o -> Json.Obj (List.rev (r.write o []))); dec = r.read }
