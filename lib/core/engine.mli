(** The round-by-round executor.

    Runs an {!Algorithm} against a {!Detector}: each round it collects the
    emitted messages, asks the detector for the fault sets, delivers to every
    process exactly the messages of processes outside its fault set, and
    records the round in the fault history.  Optionally a {!Predicate} is
    re-checked after every round, so a misbehaving detector is caught at the
    earliest offending round. *)

val run :
  n:int ->
  ?max_rounds:int ->
  ?check:Predicate.t ->
  ?stop_when_decided:bool ->
  algorithm:('s, 'm, 'out) Algorithm.t ->
  detector:Detector.t ->
  unit ->
  'out Substrate.execution
(** [run ~n ~algorithm ~detector ()] executes rounds until every process has
    decided (when [stop_when_decided], the default) or [max_rounds] (default
    64) have run.  With [stop_when_decided:false] it always runs exactly
    [max_rounds] rounds, which is how fixed-horizon protocols such as the
    full-information algorithm are driven.

    The execution is the ["engine"] substrate's: [induced] is the
    detector's output, [violation] the earliest [check] report (the run
    stops at the violating round), no process ever crashes
    ([crashed = Pset.empty]) and every process completes every executed
    round ([completed.(i) = rounds_used]).

    @raise Invalid_argument if [n] is out of range, if the detector returns a
    malformed round (wrong length or ids out of range), or if a detector
    marks every process faulty to some process ([D(i,r) = S] — the paper
    notes this can never happen, as not all processes can be late). *)

val states_after :
  n:int ->
  rounds:int ->
  algorithm:('s, 'm, 'out) Algorithm.t ->
  detector:Detector.t ->
  unit ->
  's array * Fault_history.t
(** [states_after ~n ~rounds ~algorithm ~detector ()] runs exactly [rounds]
    rounds and returns the resulting per-process states together with the
    fault history — the raw material for simulation arguments that inspect
    states rather than decisions. *)
