(** Work counters for one engine execution.

    The bench/report layer wants tables to say how much work a run did, not
    just whether it passed, so the {!Engine} counts the cheap-to-count
    events of the round loop and surfaces them in its execution.  All
    counters are exact (no sampling):

    - [rounds]: rounds actually executed (equals
      the execution's [rounds_used] unless a predicate violation stopped
      the run);
    - [messages]: round messages delivered — per process and round, the
      processes {e outside} its fault set, i.e. [Σ_{i,r} (n − |D(i,r)|)];
    - [detector_queries]: calls to {!Detector.next} (one per round);
    - [predicate_checks]: per-round re-evaluations of the [?check]
      predicate (0 when no check was requested). *)

type t = {
  rounds : int;
  messages : int;
  detector_queries : int;
  predicate_checks : int;
}

val zero : t
(** All counters 0 — the state before the first round. *)

val add : t -> t -> t
(** Field-wise sum, for aggregating across runs or trials. *)

val of_history : Fault_history.t -> t
(** [of_history h] is the exact work record of executing history [h] on
    any round-driving substrate: [rounds = Fault_history.rounds h],
    [messages = Σ_{i,r} (n − |D(i,r)|)] (the delivered slots), one
    detector query per round, and no predicate checks.  This is what
    {!Engine.run} would have counted round by round — exposed so
    substrates and experiments that only keep the history (e.g.
    {!Engine.states_after} call sites) report identical numbers. *)

val to_fields : t -> (string * int) list
(** Stable [(label, value)] view in declaration order; the labels
    ("rounds", "messages", "detector-queries", "predicate-checks") are the
    vocabulary used by experiment tables and the BENCH json schema. *)
