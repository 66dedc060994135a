type _ value = Int : int value | Int64 : int64 value

let read : type v. v value -> string -> v option =
 fun value s ->
  match value with
  | Int -> (
    match int_of_string_opt s with Some v when v >= 0 -> Some v | _ -> None)
  | Int64 -> (
    match Int64.of_string_opt s with Some v when v >= 0L -> Some v | _ -> None)

let parse ?(lenient = false) value spec =
  let clean = if lenient then String.trim else Fun.id in
  let param acc pair =
    Result.bind acc (fun params ->
        match String.split_on_char '=' pair with
        | [ key; v ] -> (
          match read value (clean v) with
          | Some v -> Ok ((clean key, v) :: params)
          | None ->
            Error (Printf.sprintf "%S: %S is not a non-negative int" spec v))
        | _ -> Error (Printf.sprintf "%S: expected key=value, got %S" spec pair))
  in
  match String.index_opt spec ':' with
  | None -> Ok (clean spec, [])
  | Some i ->
    let name = clean (String.sub spec 0 i) in
    let args = String.sub spec (i + 1) (String.length spec - i - 1) in
    if lenient && args = "" then Ok (name, [])
    else
      List.fold_left param (Ok []) (String.split_on_char ',' args)
      |> Result.map (fun params -> (name, params))
