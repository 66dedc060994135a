(** Delivery views: what one process sees at the end of one round.

    A view is the zero-allocation replacement for the per-process
    [received : 'm option array] the executor used to build each round:
    one borrowed message buffer plus the round's fault set, read through
    {!get}/{!fold}.  [received.(j) = Some m] becomes "[j] ∈ {!heard} and
    {!get} returns [m]"; [received.(j) = None] becomes "[j] ∈ {!faulty}".
    The invariant every substrate maintains is exactly the paper's
    delivery rule: a slot is readable iff the sender is outside [D(i,r)],
    and every readable slot holds that sender's round message.

    {b Lifetime.}  A view is only valid for the duration of the
    [deliver] call it is passed to: the executor owns the underlying
    buffer and reuses it for the next process and the next round.  A
    transition that wants to keep round data must copy it out
    ({!to_option_array}, or fold into its own state); retaining the view
    itself is a bug.  See DESIGN.md, "hot path discipline". *)

type 'm t

(** {1 Reading} *)

val n : 'm t -> int
(** Number of processes in the system. *)

val faulty : 'm t -> Pset.t
(** [D(i,r)]: the senders whose round messages the receiver did not
    wait for. *)

val heard : 'm t -> Pset.t
(** Complement of {!faulty} in the universe — exactly the readable
    slots. *)

val mem : 'm t -> Proc.t -> bool
(** [mem v j] is [j ∈ heard v].
    @raise Invalid_argument if [j] is outside the universe. *)

val get : 'm t -> Proc.t -> 'm
(** [get v j] is [j]'s round message.
    @raise Invalid_argument if [j ∉ heard v]. *)

val fold : (Proc.t -> 'm -> 'a -> 'a) -> 'm t -> 'a -> 'a
(** Fold over the heard messages in ascending sender order. *)

val iter : (Proc.t -> 'm -> unit) -> 'm t -> unit
(** Iterate over the heard messages in ascending sender order. *)

val to_option_array : 'm t -> 'm option array
(** Fresh snapshot in the old [received] encoding — the escape hatch for
    transitions that retain round data (the full-information protocol). *)

(** {1 Building}

    Substrate-side constructors.  {!create} once per execution, {!set}
    once per (process, round): the buffer is borrowed, never copied, and
    [heard] is derived from the hoisted universe set, so a steady-state
    round allocates nothing. *)

val create : n:int -> 'm t
(** An empty view shell for an [n]-process system.  Until the first
    {!set} the view reads as "heard nobody".
    @raise Invalid_argument if [n < 1] or [n > Pset.max_universe]. *)

val set : 'm t -> msgs:'m array -> faulty:Pset.t -> unit
(** [set v ~msgs ~faulty] repoints [v] at [msgs] (borrowed, length [n])
    with fault set [faulty].  Slots named by [faulty] may hold junk —
    they are unreachable through the reading API.
    @raise Invalid_argument if [msgs] has the wrong length or [faulty]
    reaches outside the universe. *)

val unsafe_set : 'm t -> msgs:'m array -> faulty:Pset.t -> unit
(** {!set} without the length and universe checks, for executors that
    have already validated the round's fault sets (the engine runs
    [validate_round] on every detector output before building views).
    Passing an unvalidated [faulty] or a short buffer breaks the
    delivery invariant silently — never call this with data that has not
    gone through an equivalent check. *)

val of_option_array : 'm option array -> faulty:Pset.t -> 'm t
(** Compatibility constructor from the old encoding: heard slots are the
    [Some]s.  Validates the delivery invariant ([arr.(j) = Some _] iff
    [j ∉ faulty]) and copies, so it allocates — fine for the replay,
    trace and simulation paths, not for the engine kernel.
    @raise Invalid_argument if the invariant does not hold. *)
