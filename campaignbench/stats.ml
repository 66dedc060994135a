(* Order statistics and attribution arithmetic.  Pure, so the tests can
   pin the rules the benchmark reports by. *)

(* Nearest-rank percentile: the [rank]-th smallest of [n] samples is the
   smallest sample with at least [pct]% of the samples at or below it.
   Integer arithmetic, so [rank ~n:1000 ~pct:99] is exactly 990. *)
let rank ~n ~pct =
  if n < 1 then invalid_arg "Stats.rank: no samples";
  if pct < 1 || pct > 100 then invalid_arg "Stats.rank: pct outside 1..100";
  max 1 (((pct * n) + 99) / 100)

(* Samples strictly above the reported one.  A percentile is reported
   only when at least ten samples lie beyond it. *)
let beyond ~n ~pct = n - rank ~n ~pct

let supported ~n ~pct = beyond ~n ~pct >= 10

let percentile xs ~pct =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(rank ~n:(Array.length s) ~pct - 1)

let median xs = percentile xs ~pct:50

(* Throughput of [batches] consecutive equal slices of the op list, each
   as units done over summed op latency (ns).  Reporting their median
   keeps a single preempted op from moving the rate. *)
let batch_rates ~batches ~latencies_ns ~units =
  let n = Array.length latencies_ns in
  if batches < 1 || batches > n then invalid_arg "Stats.batch_rates";
  Array.init batches (fun b ->
      let lo = b * n / batches and hi = (b + 1) * n / batches in
      let t = ref 0. and u = ref 0 in
      for i = lo to hi - 1 do
        t := !t +. latencies_ns.(i);
        u := !u + units.(i)
      done;
      float_of_int !u /. (!t /. 1e9))

(* Attribution of one execution's measured time to the layers it runs
   through: each term is a layer's isolated cost times its exact count
   per execution; the residual is what the terms do not explain. *)
type term = { layer : string; cost_ns : float; count : float }

type attribution = {
  terms : term list;
  sum_ns : float;
  span_ns : float;
  residual_ns : float;
  residual_share : float;
}

let attribute ~span_ns terms =
  let sum_ns =
    List.fold_left (fun acc t -> acc +. (t.cost_ns *. t.count)) 0. terms
  in
  let residual_ns = span_ns -. sum_ns in
  {
    terms;
    sum_ns;
    span_ns;
    residual_ns;
    residual_share = (if span_ns > 0. then residual_ns /. span_ns else 0.);
  }
