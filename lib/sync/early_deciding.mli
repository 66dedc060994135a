(** Early-deciding consensus for the synchronous crash model.

    FloodSet always pays [f + 1] rounds, the worst case of Corollary 4.2
    with [k = 1]; but when only [f' < f] crashes actually occur, deciding
    early is possible: a process decides at the end of the first round in
    which it hears from exactly the same set of processes as in the
    previous round (a {e locally clean} round — nobody it was relying on
    disappeared), which happens by round [min(f' + 2, f + 1)].

    Agreement is {e non-uniform}: a process that decides and then crashes
    may have decided differently (its early decision can rest on values the
    survivors never learn) — correct processes always agree, because
    anything a correct process learns after a decider's stable round must
    have passed through a process the decider heard.

    This is the classic ablation on the lower bound: the bound constrains
    the worst case, not the common case, and the E9 chain adversary is
    exactly the schedule that forces the worst case.  Used by the
    early-stopping experiment/bench. *)

type state

val algorithm : inputs:int array -> f:int -> (state, int list, int) Rrfd.Algorithm.t
(** Flooding with the clean-round rule; still decides by [f + 1] at the
    latest.  Messages are sorted known-value lists, as in {!Flood}. *)
