(** The adopt-commit protocol (Section 4.2).

    Each process inputs a value it proposes; each process outputs either
    [Commit v] or [Adopt v] for some input value [v], such that

    + {b convergence}: if all inputs equal [v], every process commits [v];
    + {b agreement}: if any process commits [v], every process commits or
      adopts [v] (in particular no other value is committed).

    The paper gives a wait-free two-round protocol.  Run as an RRFD
    algorithm it is correct under the atomic-snapshot predicate
    [Predicate.snapshot] (self-inclusion plus comparable views), which is
    what the crash-fault simulation of Theorem 4.3 uses; the register-based
    original is in the [shm] library.

    The two round rules are exposed once, over a delivery {!View.t}, so
    that {!Phased_consensus}, {!Sim_crash} (which runs [n] adopt-commit
    instances inside two of its rounds) and the register-based version
    in the [shm] library all run this one definition. *)

type 'v vote =
  | Commit_vote of 'v  (** "commit v": every first-round value seen was [v] *)
  | Adopt_vote of 'v  (** "adopt v": mixed values seen; [v] is the proposer's own *)

type 'v outcome = Commit of 'v | Adopt of 'v

val value_of : 'v outcome -> 'v

val is_commit : 'v outcome -> bool

(** {1 The round rules}

    Both rules make one pass over what process [me] saw in a round, in
    this order: its own item first when [me] is in the view's fault set
    (self-inclusion: a process knows its own round message through its
    local state), then every heard message in ascending sender order.
    They build no list and compare values only with [equal]. *)

val propose :
  equal:('v -> 'v -> bool) -> me:Proc.t -> own:'v -> 'm View.t -> ('m -> 'v) -> 'v vote
(** First-round transition: [propose ~equal ~me ~own view value] reads
    each heard message's value with [value].  [Commit_vote v] iff every
    value seen equals [v], the first one; otherwise (or when nothing was
    seen) [Adopt_vote own]. *)

val resolve :
  equal:('v -> 'v -> bool) ->
  me:Proc.t ->
  own:'v ->
  own_vote:'v vote ->
  'm View.t ->
  ('m -> 'v vote) ->
  'v outcome
(** Second-round transition: [own_vote] is [me]'s own vote and [vote]
    reads each heard message's.  [Commit v] if every vote seen is
    [Commit_vote v]; else [Adopt v] for the first [Commit_vote v] seen;
    else [Adopt own]. *)

type 'v state
(** Per-process state of the two-round RRFD protocol. *)

type 'v message = Value of 'v | Vote of 'v vote
(** Round messages of the RRFD protocol. *)

val algorithm : inputs:'v array -> ('v state, 'v message, 'v outcome) Algorithm.t
(** The two-round protocol as an RRFD algorithm: round 1 emits the input,
    round 2 emits the vote, after which the process decides.  Correct under
    [Predicate.snapshot ~f] for any [f] (wait-free: [f = n − 1]). *)

val pp_outcome :
  (Format.formatter -> 'v -> unit) -> Format.formatter -> 'v outcome -> unit

val encode : int outcome -> int
(** Pack an outcome over non-negative int values into a single int
    ([Commit v ↦ 2v], [Adopt v ↦ 2v+1]) so adopt-commit executions flow
    through machinery — the protocol catalog, the model checker — whose
    decisions are plain ints.
    @raise Invalid_argument on negative values. *)

val decode : int -> int outcome
(** Inverse of {!encode}. @raise Invalid_argument on negative codes. *)

val pp_encoded : Format.formatter -> int -> unit
(** Renders an {!encode}d outcome as [commit v] / [adopt v]. *)

val check_outcomes : inputs:'v array -> 'v outcome option array -> string option
(** [check_outcomes ~inputs outcomes] verifies the adopt-commit
    specification on one execution (shared by the RRFD and register
    versions): every process decided; convergence — equal inputs force
    everyone to commit that input; agreement — a committed value is
    committed or adopted by everybody; validity — every output value is
    some process's input.  Returns the earliest violation, or [None]. *)
