let distinct n = Array.init n Fun.id

let binary rng n = Array.init n (fun _ -> Dsim.Rng.int rng 2)

let constant n v = Array.make n v
