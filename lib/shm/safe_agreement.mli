(** Safe agreement — the Borowsky–Gafni simulation primitive.

    The paper's Section 4 transfers asynchronous impossibility results
    ([9, 11, 12]) to synchronous lower bounds; those impossibility results
    rest on the BG simulation, whose core primitive is {e safe agreement}:
    agreement and validity of consensus, but termination only if no process
    crashes inside its {e unsafe window}.

    The classic snapshot protocol: a proposer raises its cell to level 1
    (entering the doorway), scans, and either backs off to level 0 (someone
    already reached level 2) or raises to level 2.  Resolution scans until
    no cell is at level 1 and returns the value of the lowest-id level-2
    cell.  A crash strictly inside the doorway (after the level-1 write,
    before the level-2/0 write) can block resolution forever — exactly the
    window the BG simulation works around. *)

type result = {
  decisions : int option array;  (** [None] = blocked or crashed. *)
  stuck : bool array;  (** Processes that crashed inside their doorway. *)
  steps : int;
}

val run :
  inputs:int array ->
  schedule:Exec.strategy ->
  ?stuck_in_doorway:bool array ->
  unit ->
  result
(** One execution among [Array.length inputs] processes.
    [stuck_in_doorway.(i)] makes process [i] crash right after its level-1
    write — the blocking fault.  Live processes retry resolution up to
    [8n] scans.  Guarantees demonstrated by
    the tests: deciders always agree on a proposed value; with no doorway
    crash every live process decides; with one, resolution can block. *)
