module Pset = Rrfd.Pset

type message =
  | Update of { ts : int; value : int; op : int }
  | Update_ack of { op : int }
  | Query of { op : int }
  | Query_reply of { op : int; ts : int; value : int option }

(* Quorums are sets of distinct replicas, never reply counts: an
   adversary that duplicates messages must not be able to fake a quorum
   out of one replica's acks (the original int counters allowed exactly
   that). *)
type pending =
  | Write_pending of {
      ts : int;
      value : int;
      acks : Pset.t;
      on_done : unit -> unit;
      invoked : float;
    }
  | Read_query of {
      replies : (int * (int * int option)) list;
          (* replica -> (ts, value) *)
      on_done : int option -> unit;
      invoked : float;
    }
  | Read_write_back of {
      ts : int;
      value : int option;
      acks : Pset.t;
      on_done : int option -> unit;
      invoked : float;
    }

module History0 = struct
  type event = {
    proc : Rrfd.Proc.t;
    kind : [ `Write of int | `Read of int option ];
    invoked : float;
    responded : float;
    timestamp : int;
  }

  (* t is defined below; events accessor added after. *)

  let check_atomic events =
    (* events are in response order already. *)
    let violation = ref None in
    let note fmt = Printf.ksprintf (fun s -> if !violation = None then violation := Some s) fmt in
    (* 1. Writes carry strictly increasing timestamps (single writer). *)
    let writes =
      List.filter (fun e -> match e.kind with `Write _ -> true | `Read _ -> false) events
    in
    let rec strictly_increasing = function
      | a :: (b :: _ as rest) ->
        if a.timestamp >= b.timestamp then
          note "write timestamps not increasing (%d then %d)" a.timestamp b.timestamp;
        strictly_increasing rest
      | [ _ ] | [] -> ()
    in
    strictly_increasing writes;
    (* 2. A read starting after a write responded returns ts ≥ that write's. *)
    List.iter
      (fun r ->
        match r.kind with
        | `Write _ -> ()
        | `Read _ ->
          List.iter
            (fun w ->
              if w.responded < r.invoked && r.timestamp < w.timestamp then
                note
                  "read at p%d returned ts %d although write ts %d completed \
                   before it started"
                  r.proc r.timestamp w.timestamp)
            writes)
      events;
    (* 3. A read never returns a timestamp from the future: ts must belong
       to a write invoked before the read responded (ts 0 = initial). *)
    List.iter
      (fun r ->
        match r.kind with
        | `Write _ -> ()
        | `Read _ ->
          if
            r.timestamp > 0
            && not
                 (List.exists
                    (fun w -> w.timestamp = r.timestamp && w.invoked < r.responded)
                    writes)
          then
            note "read at p%d returned ts %d not matching any prior write"
              r.proc r.timestamp)
      events;
    (* 4. Non-overlapping reads are monotone. *)
    let reads =
      List.filter (fun e -> match e.kind with `Read _ -> true | `Write _ -> false) events
    in
    List.iter
      (fun r1 ->
        List.iter
          (fun r2 ->
            if r1.responded < r2.invoked && r2.timestamp < r1.timestamp then
              note "new/old inversion between reads at p%d and p%d" r1.proc r2.proc)
          reads)
      reads;
    !violation
end

type replica = { mutable ts : int; mutable value : int option }

type t = {
  sim : Dsim.Sim.t;
  n : int;
  f : int;
  writer : Rrfd.Proc.t;
  replicas : replica array;
  pending : (int, Rrfd.Proc.t * pending) Hashtbl.t; (* op id -> owner, state *)
  mutable next_op : int;
  mutable write_ts : int;
  mutable network : message Network.t option;
  mutable events : History0.event list; (* response order, newest first *)
  retry_every : float option;
}

(* Retries stop at this virtual time. *)
let retry_horizon = 600.0

let net t = Option.get t.network

let quorum t = t.n - t.f

let record t proc kind invoked timestamp =
  t.events <-
    {
      History0.proc;
      kind;
      invoked;
      responded = Dsim.Sim.now t.sim;
      timestamp;
    }
    :: t.events

(* While an operation stays pending, periodically rebroadcast its message
   so a dropping or partitioned adversary can delay quorums but not starve
   them.  Replicas are idempotent (ts-guarded updates) and owners dedupe
   acks by replica, so the duplicates are harmless. *)
let arm_retry t op =
  match t.retry_every with
  | None -> ()
  | Some every ->
    let rec retry sim =
      match Hashtbl.find_opt t.pending op with
      | None -> ()
      | Some (owner, p) ->
        (match p with
        | Write_pending w ->
          Network.broadcast (net t) ~from:owner
            (Update { ts = w.ts; value = w.value; op })
        | Read_query _ -> Network.broadcast (net t) ~from:owner (Query { op })
        | Read_write_back { ts; value = Some v; _ } ->
          Network.broadcast (net t) ~from:owner (Update { ts; value = v; op })
        | Read_write_back { value = None; _ } -> ());
        if Dsim.Sim.now sim +. every <= retry_horizon then
          Dsim.Sim.schedule sim ~delay:every retry
    in
    Dsim.Sim.schedule t.sim ~delay:every retry

let handle t ~to_ ~from msg =
  match msg with
  | Update { ts; value; op } ->
    let r = t.replicas.(to_) in
    if ts > r.ts then begin
      r.ts <- ts;
      r.value <- Some value
    end;
    Network.send (net t) ~from:to_ ~to_:from (Update_ack { op })
  | Query { op } ->
    let r = t.replicas.(to_) in
    Network.send (net t) ~from:to_ ~to_:from
      (Query_reply { op; ts = r.ts; value = r.value })
  | Update_ack { op } -> (
    match Hashtbl.find_opt t.pending op with
    | Some (owner, Write_pending w) when owner = to_ ->
      let acks = Pset.add from w.acks in
      if Pset.cardinal acks >= quorum t then begin
        Hashtbl.remove t.pending op;
        record t owner (`Write w.value) w.invoked w.ts;
        w.on_done ()
      end
      else Hashtbl.replace t.pending op (owner, Write_pending { w with acks })
    | Some (owner, Read_write_back r) when owner = to_ ->
      let acks = Pset.add from r.acks in
      if Pset.cardinal acks >= quorum t then begin
        Hashtbl.remove t.pending op;
        record t owner (`Read r.value) r.invoked r.ts;
        r.on_done r.value
      end
      else Hashtbl.replace t.pending op (owner, Read_write_back { r with acks })
    | Some _ | None -> ())
  | Query_reply { op; ts; value } -> (
    match Hashtbl.find_opt t.pending op with
    | Some (owner, Read_query q) when owner = to_ ->
      let replies =
        if List.mem_assoc from q.replies then q.replies
        else (from, (ts, value)) :: q.replies
      in
      if List.length replies >= quorum t then begin
        Hashtbl.remove t.pending op;
        let best_ts, best_value =
          List.fold_left
            (fun (bt, bv) (_, (ts, v)) -> if ts > bt then (ts, v) else (bt, bv))
            (-1, None) replies
        in
        (* Phase 2: write back the freshest pair before returning. *)
        let wb_op = t.next_op in
        t.next_op <- t.next_op + 1;
        Hashtbl.replace t.pending wb_op
          ( owner,
            Read_write_back
              {
                ts = best_ts;
                value = best_value;
                acks = Pset.empty;
                on_done = q.on_done;
                invoked = q.invoked;
              } );
        (match best_value with
        | Some v ->
          Network.broadcast (net t) ~from:owner
            (Update { ts = best_ts; value = v; op = wb_op });
          arm_retry t wb_op
        | None ->
          (* Nothing ever written: ack ourselves through the same path by
             broadcasting a no-op query... simpler: complete directly, the
             initial value needs no write-back. *)
          Hashtbl.remove t.pending wb_op;
          record t owner (`Read None) q.invoked 0;
          q.on_done None)
      end
      else Hashtbl.replace t.pending op (owner, Read_query { q with replies })
    | Some _ | None -> ())

let create ~sim ~n ~f ~writer ?min_delay ?max_delay ?adversary () =
  if f < 0 || 2 * f >= n then invalid_arg "Abd.create: need 0 ≤ 2f < n";
  if writer < 0 || writer >= n then invalid_arg "Abd.create: writer out of range";
  let retry_every =
    match adversary with
    | Some a when not (Adversary.is_noop a) -> Some 10.0
    | Some _ | None -> None
  in
  let t =
    {
      sim;
      n;
      f;
      writer;
      replicas = Array.init n (fun _ -> { ts = 0; value = None });
      pending = Hashtbl.create 16;
      next_op = 0;
      write_ts = 0;
      network = None;
      events = [];
      retry_every;
    }
  in
  let deliver _sim ~to_ ~from msg = handle t ~to_ ~from msg in
  t.network <-
    Some (Network.create ~sim ~n ?min_delay ?max_delay ?adversary ~deliver ());
  t

let write t ~value ~on_done =
  let has_pending_write =
    Hashtbl.fold
      (fun _ (_, p) acc ->
        acc || match p with Write_pending _ -> true | Read_query _ | Read_write_back _ -> false)
      t.pending false
  in
  if has_pending_write then invalid_arg "Abd.write: a write is already pending";
  t.write_ts <- t.write_ts + 1;
  let op = t.next_op in
  t.next_op <- t.next_op + 1;
  Hashtbl.replace t.pending op
    ( t.writer,
      Write_pending
        {
          ts = t.write_ts;
          value;
          acks = Pset.empty;
          on_done;
          invoked = Dsim.Sim.now t.sim;
        } );
  Network.broadcast (net t) ~from:t.writer
    (Update { ts = t.write_ts; value; op });
  arm_retry t op

let read t ~proc ~on_done =
  if proc < 0 || proc >= t.n then invalid_arg "Abd.read: process out of range";
  let op = t.next_op in
  t.next_op <- t.next_op + 1;
  Hashtbl.replace t.pending op
    ( proc,
      Read_query { replies = []; on_done; invoked = Dsim.Sim.now t.sim } );
  Network.broadcast (net t) ~from:proc (Query { op });
  arm_retry t op

let crash t p = Network.crash (net t) p

let history_events t = List.rev t.events

module History = struct
  include History0

  let events = history_events
end
