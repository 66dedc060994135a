type t = Wait_all | Wait_quorum | Deadline of int64

let names = "all, quorum, deadline:ns=_ (or us=_/ms=_)"

(* The [name] / [name:k=v,...] grammar of {!Rrfd.Spec_syntax}, values
   read as [int64] nanosecond counts. *)
let of_spec spec =
  Result.bind Rrfd.Spec_syntax.(parse Int64 spec) (fun (name, params) ->
      let bare t =
        if params = [] then Ok t
        else Error (Printf.sprintf "%S: %s takes no parameters" spec name)
      in
      match name with
      | "all" -> bare Wait_all
      | "quorum" -> bare Wait_quorum
      | "deadline" -> (
        (* Values are non-negative, so [v * factor] fits in int64 iff
           [v <= max_int / factor]. *)
        let scaled key factor =
          Option.map
            (fun v ->
              if v > Int64.div Int64.max_int factor then
                Error
                  (Printf.sprintf "%S: %s=%Ld is more nanoseconds than int64 holds"
                     spec key v)
              else Ok (Deadline (Int64.mul v factor)))
            (List.assoc_opt key params)
        in
        match
          List.find_map Fun.id
            [ scaled "ms" 1_000_000L; scaled "us" 1_000L; scaled "ns" 1L ]
        with
        | Some result -> result
        | None ->
          Error
            (Printf.sprintf "%S: deadline needs ns=, us= or ms=" spec))
      | _ ->
        Error
          (Printf.sprintf "unknown patience %S, expected one of: %s" spec names))

let to_string = function
  | Wait_all -> "all"
  | Wait_quorum -> "quorum"
  | Deadline ns -> Printf.sprintf "deadline:ns=%Ld" ns
