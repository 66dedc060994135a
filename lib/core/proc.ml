type t = int

let equal = Int.equal

let pp ppf p = Format.fprintf ppf "p%d" p
