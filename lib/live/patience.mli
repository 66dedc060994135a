(** Round patience policies for the live substrate.

    A live process has no detector telling it whom to give up on; what it
    has is a mailbox and a clock.  A patience policy is the rule by which
    it decides that round [r] is over: the processes it has not heard from
    by then become its fault set [D(i,r)].  The three policies span the
    paper's spectrum —

    - {!Wait_all} never gives up: rounds are lock-step, the induced
      history is failure-free and the run behaves like the synchronous
      network without faults (but paced by the real scheduler).
    - {!Wait_quorum} proceeds on the first [n − f] round-[r] messages
      (its own included): the classic asynchronous rule, inducing
      [|D(i,r)| ≤ f] (predicate P3) by construction.
    - {!Deadline} proceeds when every message arrived or the given
      wall-clock budget (nanoseconds since the round's wait began) is
      spent, whichever is first — genuine timing-driven omission.  A
      loaded scheduler can make [D(i,r)] arbitrarily large (never all of
      [S]: a process always hears itself), so which predicates hold is an
      empirical question; E23 measures the rates. *)

type t =
  | Wait_all  (** Complete a round only with all [n] messages. *)
  | Wait_quorum  (** Complete on the first [n − f] messages. *)
  | Deadline of int64
      (** [Deadline ns]: complete when all [n] messages arrived or [ns]
          wall-clock nanoseconds elapsed, whichever is first. *)

val names : string
(** Human-readable spec vocabulary, for CLI [--help] and errors. *)

val of_spec : string -> (t, string) result
(** Parse ["all"], ["quorum"], ["deadline:ns=N"] / ["deadline:us=N"] /
    ["deadline:ms=N"] (the unit keys are alternatives, largest wins). *)

val to_string : t -> string
(** Inverse of {!of_spec}, canonical form (deadlines in ns). *)
