(* In-memory span recorder for the traced run.  A span is a name, a start
   and an end (monotonic ns), the span that caused it, and the op it
   belongs to; spans are summarised when the run ends.  [null] records
   nothing, so the same decomposed code serves untraced input
   recording. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* Processor time of the calling thread.  Ops never sleep or wait on I/O,
   so this is their latency, less the time the host gives to other
   processes.  A system call, so too dear for per-span use. *)
external cpu_now : unit -> int = "campaignbench_thread_cputime_ns" [@@noalloc]

type t = {
  on : bool;
  mutable names : string array;  (** name table, indexed by name id *)
  mutable len : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable op : int array;
  mutable current : int;  (** innermost open span, [-1] at top level *)
  mutable current_op : int;
}

let make on =
  {
    on;
    names = [||];
    len = 0;
    name = [||];
    start = [||];
    stop = [||];
    parent = [||];
    op = [||];
    current = -1;
    current_op = 0;
  }

let create () = make true

let null = make false

let id t name =
  let rec find i =
    if i = Array.length t.names then begin
      t.names <- Array.append t.names [| name |];
      i
    end
    else if t.names.(i) = name then i
    else find (i + 1)
  in
  find 0

let set_op t op = t.current_op <- op

let grow t =
  let cap = max 1024 (2 * Array.length t.name) in
  let ext a = Array.append a (Array.make (cap - Array.length a) 0) in
  t.name <- ext t.name;
  t.start <- ext t.start;
  t.stop <- ext t.stop;
  t.parent <- ext t.parent;
  t.op <- ext t.op

let with_ t name_id f =
  if not t.on then f ()
  else begin
    if t.len = Array.length t.name then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.name.(i) <- name_id;
    t.parent.(i) <- t.current;
    t.op.(i) <- t.current_op;
    t.current <- i;
    t.start.(i) <- now ();
    let r = f () in
    t.stop.(i) <- now ();
    t.current <- t.parent.(i);
    r
  end

type summary = { span : string; count : int; total_ns : float; self_ns : float }

(* Per-name count, total and self time; self time is a span's duration
   minus the part its child spans cover. *)
let summarise t =
  let k = Array.length t.names in
  let count = Array.make k 0
  and total = Array.make k 0.
  and child = Array.make k 0. in
  for i = 0 to t.len - 1 do
    let d = float_of_int (t.stop.(i) - t.start.(i)) in
    count.(t.name.(i)) <- count.(t.name.(i)) + 1;
    total.(t.name.(i)) <- total.(t.name.(i)) +. d;
    let p = t.parent.(i) in
    if p >= 0 then child.(t.name.(p)) <- child.(t.name.(p)) +. d
  done;
  List.init k (fun j ->
      {
        span = t.names.(j);
        count = count.(j);
        total_ns = total.(j);
        self_ns = total.(j) -. child.(j);
      })

(* Summed duration of the top-level spans: the measured span total. *)
let root_total t =
  let s = ref 0 in
  for i = 0 to t.len - 1 do
    if t.parent.(i) < 0 then s := !s + (t.stop.(i) - t.start.(i))
  done;
  float_of_int !s
