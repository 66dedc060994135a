type t = {
  name : string;
  doc : string;
  explain : Fault_history.t -> string option;
  verdict : (Fault_history.t -> bool) option;
      (* [explain h = None], decided without formatting a report: the
         path of every [holds] call, so it builds no message.  [None]
         asks [explain]; [make] without [~holds] then allocates
         nothing more than the record. *)
  incr : (Fault_history.t -> round:int -> string option) option;
      (* Round-local re-check: equals [explain h] under the precondition
         that [explain] returned [None] on every proper prefix of [h] and
         [round = Fault_history.rounds h].  [None] means the predicate has
         no cheap per-round form; callers fall back to [explain]. *)
}

let name p = p.name

let doc p = p.doc

let explain p h = p.explain h

let holds p h =
  match p.verdict with Some v -> v h | None -> p.explain h = None

(* What the executor calls after each round: sound whenever the history
   grew one round at a time and no earlier call reported a violation —
   exactly the engine's use.  Falls back to the full scan when the
   predicate has no incremental form. *)
let check_round p h ~round =
  match p.incr with Some f -> f h ~round | None -> p.explain h

let make ?incr ?holds ~name ~doc explain =
  { name; doc; explain; verdict = holds; incr }

let conj ?name:n2 a b =
  let name = match n2 with Some n -> n | None -> a.name ^ " ∧ " ^ b.name in
  {
    name;
    doc = a.doc ^ "; and " ^ b.doc;
    explain =
      (fun h ->
        match a.explain h with Some e -> Some e | None -> b.explain h);
    verdict = Some (fun h -> holds a h && holds b h);
    (* Both conjuncts were clean on every prefix whenever the conjunction
       was, so each side's round check is individually sound. *)
    incr =
      Some
        (fun h ~round ->
          match check_round a h ~round with
          | Some e -> Some e
          | None -> check_round b h ~round);
  }

let disj ?name:n2 a b =
  let name = match n2 with Some n -> n | None -> a.name ^ " ∨ " ^ b.name in
  {
    name;
    doc = a.doc ^ "; or " ^ b.doc;
    explain =
      (fun h ->
        match a.explain h with
        | None -> None
        | Some e -> ( match b.explain h with None -> None | Some _ -> Some e));
    verdict = Some (fun h -> holds a h || holds b h);
    (* A clean disjunction does not mean both disjuncts were clean, so a
       per-round check of either side is unsound; re-scan. *)
    incr = None;
  }

let always =
  make ~name:"true" ~doc:"the unconstrained RRFD; every history is allowed"
    ~holds:(fun _ -> true)
    (fun _ -> None)

(* Earliest (round, proc) violating [bad], reported via [msg]; the
   violation test only reads round [r], so checking just the newest round
   is a sound incremental form.  The verdict runs the same test as
   loops, with no message and no closure. *)
let per_proc ~name ~doc bad msg =
  let at h ~round =
    let n = Fault_history.n h in
    let rec scan_proc i =
      if i >= n then None
      else if bad h round i then Some (msg h round i)
      else scan_proc (i + 1)
    in
    scan_proc 0
  in
  {
    name;
    doc;
    explain =
      (fun h ->
        let rec scan_round r =
          if r > Fault_history.rounds h then None
          else
            match at h ~round:r with
            | Some _ as e -> e
            | None -> scan_round (r + 1)
        in
        scan_round 1);
    verdict =
      Some
        (fun h ->
          let n = Fault_history.n h and rounds = Fault_history.rounds h in
          let ok = ref true and r = ref 1 in
          while !ok && !r <= rounds do
            let i = ref 0 in
            while !ok && !i < n do
              ok := not (bad h !r !i);
              incr i
            done;
            incr r
          done;
          !ok);
    incr = Some at;
  }

(* Per-round (not per-process) violations, same incremental structure. *)
let per_round ~name ~doc bad msg =
  let at h ~round = if bad h round then Some (msg h round) else None in
  {
    name;
    doc;
    explain =
      (fun h ->
        let rec scan r =
          if r > Fault_history.rounds h then None
          else
            match at h ~round:r with
            | Some _ as e -> e
            | None -> scan (r + 1)
        in
        scan 1);
    verdict =
      Some
        (fun h ->
          let rounds = Fault_history.rounds h in
          let ok = ref true and r = ref 1 in
          while !ok && !r <= rounds do
            ok := not (bad h !r);
            incr r
          done;
          !ok);
    incr = Some at;
  }

let no_self_suspicion =
  per_proc ~name:"no-self-suspicion" ~doc:"∀i,r. p_i ∉ D(i,r)"
    (fun h r i -> Pset.mem i (Fault_history.d h ~proc:i ~round:r))
    (fun _ r i -> Printf.sprintf "p%d suspects itself at round %d" i r)

let bounded_cumulative_union ~bound ~strict =
  let op = if strict then "<" else "≤" in
  let within total = if strict then total < bound else total <= bound in
  make
    ~name:(Printf.sprintf "|∪∪D| %s %d" op bound)
    ~doc:
      (Printf.sprintf "|⋃_{r>0} ⋃_i D(i,r)| %s %d over all completed rounds" op
         bound)
    ~holds:(fun h ->
      within (Pset.cardinal (Fault_history.cumulative_union h)))
    (fun h ->
      let total = Pset.cardinal (Fault_history.cumulative_union h) in
      if within total then None
      else
        Some
          (Printf.sprintf "cumulative union has %d processes, want %s %d" total
             op bound))

let omission ~f =
  conj
    ~name:(Printf.sprintf "omission(f=%d)" f)
    no_self_suspicion
    (bounded_cumulative_union ~bound:f ~strict:false)

(* The closure test for one adjacent pair (r, r+1): the first process
   whose round-(r+1) set misses part of the round-r union, or -1.  A
   process never suspects itself under crash faults, so the requirement
   exempts k's own id.  [explain] scans all pairs, the incremental form
   checks only the pair the new round completed. *)
let crash_closure_violator h r =
  let union = Fault_history.round_union h ~round:r in
  let n = Fault_history.n h and k = ref 0 in
  while
    !k < n
    && Pset.subset (Pset.remove !k union)
         (Fault_history.d h ~proc:!k ~round:(r + 1))
  do
    incr k
  done;
  if !k < n then !k else -1

let crash_closure_pair h r =
  let k = crash_closure_violator h r in
  if k < 0 then None
  else
    Some
      (Printf.sprintf "round-%d union %s not contained in D(%d,%d)=%s" r
         (Pset.to_string (Fault_history.round_union h ~round:r))
         k (r + 1)
         (Pset.to_string (Fault_history.d h ~proc:k ~round:(r + 1))))

let crash_closure =
  make ~name:"crash-closure" ~doc:"∀r,k. ⋃_i D(i,r) ⊆ D(k,r+1)"
    ~holds:(fun h ->
      let rounds = Fault_history.rounds h and r = ref 1 in
      while !r < rounds && crash_closure_violator h !r < 0 do
        incr r
      done;
      !r >= rounds)
    ~incr:(fun h ~round ->
      if round < 2 then None else crash_closure_pair h (round - 1))
    (fun h ->
      let rounds = Fault_history.rounds h in
      let rec scan r =
        if r >= rounds then None
        else
          match crash_closure_pair h r with
          | Some _ as e -> e
          | None -> scan (r + 1)
      in
      scan 1)

let crash ~f =
  conj ~name:(Printf.sprintf "crash(f=%d)" f) (omission ~f) crash_closure

let async_resilient ~f =
  per_proc
    ~name:(Printf.sprintf "async(f=%d)" f)
    ~doc:(Printf.sprintf "∀r,i. |D(i,r)| ≤ %d" f)
    (fun h r i -> Pset.cardinal (Fault_history.d h ~proc:i ~round:r) > f)
    (fun h r i ->
      Printf.sprintf "|D(%d,%d)| = %d > %d" i r
        (Pset.cardinal (Fault_history.d h ~proc:i ~round:r))
        f)

let async_mixed ~f ~t =
  per_round
    ~name:(Printf.sprintf "async-mixed(f=%d,t=%d)" f t)
    ~doc:
      (Printf.sprintf
         "∃Q, |Q| ≤ %d: processes outside Q miss ≤ %d, inside Q miss ≤ %d" t f
         t)
    (fun h r ->
      (* The minimal witness Q is exactly the processes missing more
         than f; the predicate holds iff that set is small enough and
         none of its members misses more than t. *)
      let over = ref 0 and too_many = ref false in
      for i = 0 to Fault_history.n h - 1 do
        let size = Pset.cardinal (Fault_history.d h ~proc:i ~round:r) in
        if size > f then begin
          incr over;
          if size > t then too_many := true
        end
      done;
      !over > t || !too_many)
    (fun _ r -> Printf.sprintf "no witness Q exists at round %d" r)

let someone_seen_by_all =
  per_round ~name:"someone-seen-by-all" ~doc:"∀r. |⋃_i D(i,r)| < n"
    (fun h r ->
      Pset.cardinal (Fault_history.round_union h ~round:r)
      >= Fault_history.n h)
    (fun _ r -> Printf.sprintf "round %d: every process is suspected by someone" r)

let shared_memory ~f =
  conj
    ~name:(Printf.sprintf "shm(f=%d)" f)
    (async_resilient ~f) someone_seen_by_all

let antisymmetric_misses =
  per_proc ~name:"antisymmetric-misses" ~doc:"p_j ∈ D(i,r) ⇒ p_i ∉ D(j,r)"
    (fun h r i ->
      (* Walks [D(i,r)] by its lowest member: no closure to allocate. *)
      let rest = ref (Fault_history.d h ~proc:i ~round:r) and mutual = ref false in
      while (not !mutual) && not (Pset.is_empty !rest) do
        let j = Pset.lowest !rest in
        mutual := Pset.mem i (Fault_history.d h ~proc:j ~round:r);
        rest := Pset.remove j !rest
      done;
      !mutual)
    (fun h r i ->
      let di = Fault_history.d h ~proc:i ~round:r in
      let j =
        Pset.to_list
          (Pset.filter
             (fun j -> Pset.mem i (Fault_history.d h ~proc:j ~round:r))
             di)
        |> List.hd
      in
      Printf.sprintf "round %d: p%d and p%d suspect each other" r i j)

let shared_memory_alt ~f =
  conj
    ~name:(Printf.sprintf "shm-alt(f=%d)" f)
    (shared_memory ~f) antisymmetric_misses

let comparable_views =
  per_round ~name:"comparable-views" ~doc:"∀r,i,j. D(i,r) ⊆ D(j,r) ∨ D(j,r) ⊆ D(i,r)"
    (fun h r ->
      let n = Fault_history.n h in
      let incomparable = ref false in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          let di = Fault_history.d h ~proc:i ~round:r in
          let dj = Fault_history.d h ~proc:j ~round:r in
          if not (Pset.subset di dj || Pset.subset dj di) then
            incomparable := true
        done
      done;
      !incomparable)
    (fun _ r -> Printf.sprintf "round %d has incomparable fault sets" r)

let snapshot ~f =
  conj
    ~name:(Printf.sprintf "snapshot(f=%d)" f)
    (conj (async_resilient ~f) no_self_suspicion)
    comparable_views

let detector_s =
  make ~name:"detector-S" ~doc:"∃p_j. p_j ∉ ⋃_{r>0} ⋃_i D(i,r)"
    ~holds:(fun h ->
      Pset.cardinal (Fault_history.cumulative_union h) < Fault_history.n h)
    (fun h ->
      let total = Pset.cardinal (Fault_history.cumulative_union h) in
      if total < Fault_history.n h then None
      else Some "every process is eventually suspected by someone")

let k_set ~k =
  per_round
    ~name:(Printf.sprintf "k-set(k=%d)" k)
    ~doc:(Printf.sprintf "∀r. |⋃_i D(i,r) − ⋂_i D(i,r)| < %d" k)
    (fun h r ->
      let union = Fault_history.round_union h ~round:r in
      let inter = Fault_history.round_inter h ~round:r in
      Pset.cardinal (Pset.diff union inter) >= k)
    (fun h r ->
      let union = Fault_history.round_union h ~round:r in
      let inter = Fault_history.round_inter h ~round:r in
      Printf.sprintf "round %d: |∪D − ∩D| = %d ≥ %d" r
        (Pset.cardinal (Pset.diff union inter))
        k)

let identical_views =
  per_proc ~name:"identical-views" ~doc:"∀r,i,j. D(i,r) = D(j,r) (equation 5)"
    (fun h r i ->
      i > 0
      && not
           (Pset.equal
              (Fault_history.d h ~proc:i ~round:r)
              (Fault_history.d h ~proc:0 ~round:r)))
    (fun _ r i ->
      Printf.sprintf "round %d: D(%d) differs from D(0)" r i)

let byzantine_round_bound ~f =
  per_round
    ~name:(Printf.sprintf "byz-round(f=%d)" f)
    ~doc:
      (Printf.sprintf
         "∀r. |⋃_i D(i,r)| ≤ %d — at most %d distinct processes behave \
          badly (silently or by lying) in any single round"
         f f)
    (fun h r -> Pset.cardinal (Fault_history.round_union h ~round:r) > f)
    (fun h r ->
      Printf.sprintf "round %d: %d processes misbehave, want ≤ %d" r
        (Pset.cardinal (Fault_history.round_union h ~round:r))
        f)

(* A finite history can only witness "eventually" on a suffix, and the
   suffix union is monotone in its start round, so the weakest nonempty
   witness is the final round alone: the predicate holds iff the last
   round leaves at least [k] processes unsuspected.  [explain] still
   hunts for the earliest suffix that works, which is the useful
   diagnostic when the kernel exists. *)
let eventual_honest_kernel ~k =
  make
    ~name:(Printf.sprintf "honest-kernel(k=%d)" k)
    ~doc:
      (Printf.sprintf
         "∃r₀. |⋃_{r≥r₀} ⋃_i D(i,r)| ≤ n − %d — from some round on, a \
          kernel of ≥ %d processes is never suspected or lied about"
         k k)
    ~holds:(fun h ->
      let rounds = Fault_history.rounds h in
      rounds = 0
      || Fault_history.n h
         - Pset.cardinal (Fault_history.round_union h ~round:rounds)
         >= k)
    (fun h ->
      let n = Fault_history.n h in
      let rounds = Fault_history.rounds h in
      if rounds = 0 then None
      else
        let last = Fault_history.round_union h ~round:rounds in
        if n - Pset.cardinal last >= k then None
        else
          Some
            (Printf.sprintf
               "final round still has only %d clean processes, want ≥ %d"
               (n - Pset.cardinal last)
               k))

let not_all_faulty =
  per_proc ~name:"not-all-faulty" ~doc:"∀i,r. D(i,r) ≠ S"
    (fun h r i ->
      Pset.equal
        (Fault_history.d h ~proc:i ~round:r)
        (Pset.full (Fault_history.n h)))
    (fun _ r i -> Printf.sprintf "D(%d,%d) is the whole system" i r)
