type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let empty = { count = 0; mean = nan; stddev = nan; min = nan; max = nan }

(* Welford's online algorithm: one pass, numerically stable for the large
   trial counts campaigns produce. *)
let of_array a =
  let n = Array.length a in
  if n = 0 then empty
  else begin
    let mean = ref 0.0 and m2 = ref 0.0 in
    let mn = ref a.(0) and mx = ref a.(0) in
    Array.iteri
      (fun i x ->
        let delta = x -. !mean in
        mean := !mean +. (delta /. float_of_int (i + 1));
        m2 := !m2 +. (delta *. (x -. !mean));
        if x < !mn then mn := x;
        if x > !mx then mx := x)
      a;
    let stddev = if n = 1 then 0.0 else sqrt (!m2 /. float_of_int (n - 1)) in
    { count = n; mean = !mean; stddev; min = !mn; max = !mx }
  end

let of_ints a = of_array (Array.map float_of_int a)

let ci95_halfwidth t =
  if t.count = 0 then nan
  else if t.count = 1 then 0.0
  else 1.96 *. t.stddev /. sqrt (float_of_int t.count)

let pp ppf t =
  if t.count = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "%.4g ± %.2g (n=%d, sd=%.2g, min=%.4g, max=%.4g)"
      t.mean (ci95_halfwidth t) t.count t.stddev t.min t.max
