let run ?jobs ~seed ~trials f =
  Pool.map_range ?jobs ~n:trials (fun i ->
      f ~trial:i ~rng:(Dsim.Rng.derive ~seed ~stream:i))

let search ?jobs ~seed ~trials f =
  Pool.search ?jobs ~n:trials (fun i ->
      f ~trial:i ~rng:(Dsim.Rng.derive ~seed ~stream:i))

let map ?jobs ~seed items f =
  let items = Array.of_list items in
  Pool.map_range ?jobs ~n:(Array.length items) (fun i ->
      f ~index:i ~rng:(Dsim.Rng.derive ~seed ~stream:i) items.(i))
  |> Array.to_list
