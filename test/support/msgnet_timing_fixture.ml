(* Message-network event order under pinned seeds, beyond decision
   checksums.

   [render ()] runs Chandra-Toueg consensus at n = 5, 16 and 64 under a
   lossless network, a lossy duplicating one and a Byzantine member, and
   E25's heartbeat probe, and renders everything that depends on the
   order in which the simulator delivered messages: decisions and their
   virtual times (printed exactly, as hexadecimal floats), the phases
   used, false suspicions, the audit's accusations, every network counter
   and the virtual time at drain.  A delivery that moves relative to
   another one, even between two copies of the same broadcast, shifts a
   time or a counter and shows up as a diff against
   test/fixtures/msgnet_timing.expected. *)

module Ct = Msgnet.Ct_consensus

let adversary spec =
  match Msgnet.Adversary.of_spec spec with Ok a -> a | Error e -> invalid_arg e

let hex = Printf.sprintf "%h"

let opt f = function None -> "-" | Some v -> f v

let ct_policies = [ "none"; "drop:p=15+dup:p=15"; "byz:m=1,equiv=1" ]

let ct_ns = [ 5; 16; 64 ]

let seeds = [ 11; 2024 ]

let render_ct buf ~policy ~n ~seed =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let f = (n - 1) / 2 in
  let inputs = Array.init n (fun i -> i mod 3) in
  (* n = 5 runs the historical defaults; the larger sizes E25's scale
     parameters, as campaignbench's ct-n64 does. *)
  let r =
    if n <= 5 then
      Ct.run ~seed ~adversary:(adversary policy) ~n ~f ~inputs
        ~crashes:(if policy = "none" then [ (1, 7.0) ] else [])
        ()
    else
      Ct.run ~seed ~adversary:(adversary policy) ~n ~f ~inputs ~hb_interval:55.0
        ~hb_initial_timeout:120.0 ~horizon:60.0 ()
  in
  pr "ct %s n=%d seed=%d\n" policy n seed;
  pr "  decisions=%s\n"
    (String.concat ","
       (Array.to_list (Array.map (opt string_of_int) r.Ct.decisions)));
  pr "  decision_times=%s\n"
    (String.concat "," (Array.to_list (Array.map (opt hex) r.Ct.decision_times)));
  pr "  phases=%d false_suspicions=%d accused=%s\n" r.Ct.phases_used
    r.Ct.false_suspicions
    (Rrfd.Pset.to_string r.Ct.accused);
  pr "  sent=%d delivered=%d dropped=%d duplicated=%d lost_to_crash=%d \
      tampered=%d\n"
    r.Ct.messages_sent r.Ct.messages_delivered r.Ct.messages_dropped
    r.Ct.messages_duplicated r.Ct.messages_lost_to_crash r.Ct.messages_tampered;
  pr "  virtual_time=%s\n" (hex r.Ct.virtual_time)

let render_heartbeat buf ~n ~seed =
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sim, net, hb = Experiments.E25_scale.heartbeat_exchange ~seed ~n in
  let module N = Msgnet.Network in
  pr "heartbeat n=%d seed=%d\n" n seed;
  pr "  false_suspicions=%d live_suspicions=%d\n"
    (Msgnet.Heartbeat.false_suspicions hb)
    (List.length
       (Msgnet.Heartbeat.live_suspicions hb ~among:(Rrfd.Pset.full n)));
  pr "  sent=%d delivered=%d dropped=%d duplicated=%d lost_to_crash=%d \
      tampered=%d\n"
    (N.messages_sent net) (N.messages_delivered net) (N.messages_dropped net)
    (N.messages_duplicated net)
    (N.messages_lost_to_crash net)
    (N.messages_tampered net);
  pr "  virtual_time=%s\n" (hex (Dsim.Sim.now sim))

let render () =
  let buf = Buffer.create 8192 in
  List.iter
    (fun policy ->
      List.iter
        (fun n -> List.iter (fun seed -> render_ct buf ~policy ~n ~seed) seeds)
        ct_ns)
    ct_policies;
  List.iter
    (fun n -> List.iter (fun seed -> render_heartbeat buf ~n ~seed) seeds)
    [ 5; 64; 100 ];
  Buffer.contents buf
