type strategy =
  | Round_robin
  | Random of Dsim.Rng.t
  | Fixed of int list

module Make (V : sig
  type t
end) =
struct
  open Effect
  open Effect.Deep

  type _ Effect.t += Read : int -> V.t option Effect.t
  type _ Effect.t += Write : int * V.t -> unit Effect.t

  let read loc = perform (Read loc)

  let write loc v = perform (Write (loc, v))

  (* A blocked fiber waiting for its pending operation to be executed. *)
  type blocked =
    | On_read of int * (V.t option, unit) continuation
    | On_write of int * V.t * (unit, unit) continuation

  type outcome = {
    steps : int;
    steps_per_process : int array;
  }

  let run ?enforce_swmr ~n_procs ~n_locs ~schedule body =
    if n_procs < 1 then invalid_arg "Exec.run: need at least one process";
    let memory : V.t option array = Array.make n_locs None in
    let pending : blocked option array = Array.make n_procs None in
    (* Cached count of pending fibers: the scheduler's hot loop never
       rebuilds a ready list, it draws an index below [nready] and scans
       [pending] for the index-th ready process in ascending order —
       exactly the element [Rng.choose] would have picked from the old
       ascending ready list, so seeded schedules are unchanged. *)
    let nready = ref 0 in
    let post p op =
      (match pending.(p) with None -> incr nready | Some _ -> ());
      pending.(p) <- Some op
    in
    let steps_per_process = Array.make n_procs 0 in
    let total_steps = ref 0 in
    let start proc =
      match_with
        (fun () -> body ~proc)
        ()
        {
          retc = (fun () -> ());
          exnc = (fun e -> raise e);
          effc =
            (fun (type a) (eff : a Effect.t) ->
              match eff with
              | Read loc ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    post proc (On_read (loc, k)))
              | Write (loc, v) ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    post proc (On_write (loc, v, k)))
              | _ -> None);
        }
    in
    for p = 0 to n_procs - 1 do
      start p
    done;
    (* The [idx]-th ready process in ascending order, 0 ≤ idx < !nready. *)
    let nth_ready idx =
      let seen = ref (-1) in
      let proc = ref (-1) in
      let p = ref 0 in
      while !proc < 0 do
        if Option.is_some pending.(!p) then begin
          incr seen;
          if !seen = idx then proc := !p
        end;
        incr p
      done;
      !proc
    in
    let check_owner proc loc =
      match enforce_swmr with
      | None -> ()
      | Some owner ->
        if owner loc <> proc then
          invalid_arg
            (Printf.sprintf "Exec: p%d wrote location %d owned by p%d" proc loc
               (owner loc))
    in
    let execute proc =
      match pending.(proc) with
      | None -> assert false
      | Some op ->
        pending.(proc) <- None;
        decr nready;
        incr total_steps;
        steps_per_process.(proc) <- steps_per_process.(proc) + 1;
        (match op with
        | On_read (loc, k) ->
          if loc < 0 || loc >= n_locs then invalid_arg "Exec: location out of range";
          continue k memory.(loc)
        | On_write (loc, v, k) ->
          if loc < 0 || loc >= n_locs then invalid_arg "Exec: location out of range";
          check_owner proc loc;
          memory.(loc) <- Some v;
          continue k ())
    in
    let rec drive ~rr_next ~script =
      if !nready = 0 then ()
      else begin
        let pick_round_robin () =
          let rec find i =
            let candidate = (rr_next + i) mod n_procs in
            if Option.is_some pending.(candidate) then candidate
            else find (i + 1)
          in
          find 0
        in
        let proc, script =
          match (schedule, script) with
          | Round_robin, _ -> (pick_round_robin (), script)
          | Random rng, _ -> (nth_ready (Dsim.Rng.int rng !nready), script)
          | Fixed _, p :: rest when Option.is_some pending.(p) -> (p, rest)
          | Fixed _, _ :: rest -> (pick_round_robin (), rest)
          | Fixed _, [] -> (pick_round_robin (), [])
        in
        execute proc;
        drive ~rr_next:((proc + 1) mod n_procs) ~script
      end
    in
    let script = match schedule with Fixed s -> s | Round_robin | Random _ -> [] in
    drive ~rr_next:0 ~script;
    { steps = !total_steps; steps_per_process }
end
