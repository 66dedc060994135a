module Pset = Rrfd.Pset

type t = {
  sim : Dsim.Sim.t;
  n : int;
  last : float array array; (* last.(observer).(target) = delivery time *)
  timeout : float array array;
  increment : float;
  mutable false_count : int;
}

let create ~sim ~n ~send_heartbeat ?(interval = 5.0) ?(initial_timeout = 12.0)
    ?(timeout_increment = 5.0) ?(horizon = 1000.0) () =
  if n < 1 then invalid_arg "Heartbeat.create: bad n";
  if interval <= 0.0 || initial_timeout <= 0.0 then
    invalid_arg "Heartbeat.create: non-positive timing parameter";
  let t =
    {
      sim;
      n;
      last = Array.init n (fun _ -> Array.make n (Dsim.Sim.now sim));
      timeout = Array.init n (fun _ -> Array.make n initial_timeout);
      increment = timeout_increment;
      false_count = 0;
    }
  in
  let rec tick from sim =
    send_heartbeat ~from;
    if Dsim.Sim.now sim +. interval <= horizon then
      Dsim.Sim.schedule sim ~delay:interval (tick from)
  in
  for p = 0 to n - 1 do
    (* Stagger first emissions so heartbeats don't arrive in lockstep. *)
    Dsim.Sim.schedule sim
      ~delay:(interval *. float_of_int p /. float_of_int n)
      (tick p)
  done;
  t

let overdue t ~observer ~target =
  Dsim.Sim.now t.sim -. t.last.(observer).(target)
  > t.timeout.(observer).(target)

let beat t ~at ~from =
  if at < 0 || at >= t.n || from < 0 || from >= t.n then
    invalid_arg "Heartbeat.beat: process out of range";
  (* A heartbeat from a currently-suspected process is a false suspicion:
     retract it and adapt the timeout (the ◇P recipe). *)
  if overdue t ~observer:at ~target:from then begin
    t.false_count <- t.false_count + 1;
    t.timeout.(at).(from) <- t.timeout.(at).(from) +. t.increment
  end;
  t.last.(at).(from) <- Dsim.Sim.now t.sim

let suspects t ~observer ~target =
  if observer < 0 || observer >= t.n || target < 0 || target >= t.n then
    invalid_arg "Heartbeat.suspects: process out of range";
  (not (Rrfd.Proc.equal observer target)) && overdue t ~observer ~target

let false_suspicions t = t.false_count

let live_suspicions t ~among =
  let pairs = ref [] in
  for observer = t.n - 1 downto 0 do
    if Pset.mem observer among then
      for target = t.n - 1 downto 0 do
        if Pset.mem target among && suspects t ~observer ~target then
          pairs := (observer, target) :: !pairs
      done
  done;
  !pairs
