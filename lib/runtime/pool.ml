let recommended_jobs () = Domain.recommended_domain_count ()

(* Hand out [0, n) in chunks through a shared cursor.  The calling domain
   participates as a worker, so [jobs] counts it: jobs = 4 spawns 3.  Every
   worker runs [body start stop] on disjoint chunks; exceptions are collected
   and the first one re-raised only after every spawned domain has been
   joined, so neither a failing trial nor a failed spawn (the runtime caps
   the number of domains) can leak a running domain.  After a failed spawn
   the calling domain does not work; the domains already spawned drain the
   cursor. *)
let run_chunked ~jobs ~n body =
  let workers = min jobs n in
  if workers <= 1 then (if n > 0 then body 0 n)
  else begin
    (* Chunks several times smaller than a fair share keep domains busy when
       per-index cost is uneven, without contending on the cursor per index. *)
    let chunk = max 1 (n / (workers * 8)) in
    let cursor = Atomic.make 0 in
    let worker () =
      let rec loop () =
        let start = Atomic.fetch_and_add cursor chunk in
        if start < n then begin
          body start (min n (start + chunk));
          loop ()
        end
      in
      loop ()
    in
    let first_exn = ref None in
    let record e = if !first_exn = None then first_exn := Some e in
    let spawned = ref [] in
    (try
       for _ = 2 to workers do
         spawned := Domain.spawn worker :: !spawned
       done;
       worker ()
     with e -> record e);
    List.iter
      (fun d -> try Domain.join d with e -> record e)
      (List.rev !spawned);
    match !first_exn with Some e -> raise e | None -> ()
  end

let map_range ?jobs ~n f =
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  if n <= 0 then [||]
  else if jobs <= 1 then Array.init n f
  else begin
    let results = Array.make n None in
    run_chunked ~jobs ~n (fun start stop ->
        for i = start to stop - 1 do
          results.(i) <- Some (f i)
        done);
    Array.map (function Some v -> v | None -> assert false) results
  end

(* Deterministic parallel first-hit search.  Every index below the current
   best hit is still evaluated (skipping applies only above it), so the
   final answer is the hit with the smallest index — the same one a serial
   left-to-right scan finds — no matter how chunks were scheduled. *)
let search ?jobs ~n f =
  let jobs = match jobs with Some j -> j | None -> recommended_jobs () in
  if n <= 0 then None
  else if jobs <= 1 then begin
    let rec scan i =
      if i >= n then None
      else match f i with Some _ as hit -> hit | None -> scan (i + 1)
    in
    scan 0
  end
  else begin
    let results = Array.make n None in
    let best = Atomic.make n in
    let lower_best i =
      let rec cas () =
        let cur = Atomic.get best in
        if i < cur && not (Atomic.compare_and_set best cur i) then cas ()
      in
      cas ()
    in
    run_chunked ~jobs ~n (fun start stop ->
        for i = start to stop - 1 do
          if i < Atomic.get best then
            match f i with
            | None -> ()
            | Some _ as hit ->
              results.(i) <- hit;
              lower_best i
        done);
    let rec first i =
      if i >= n then None
      else match results.(i) with Some _ as hit -> hit | None -> first (i + 1)
    in
    first 0
  end
