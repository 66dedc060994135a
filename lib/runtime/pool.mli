(** A work-stealing-free domain pool for embarrassingly parallel ranges.

    Trials of a Monte-Carlo campaign are independent communication-closed
    units, so the pool only needs one primitive: evaluate [f] at every index
    of a range, spreading chunks of the range across OCaml 5 domains.  The
    result at index [i] is always [f i] — scheduling can never change what
    is computed, only where — so callers get parallelism without giving up
    reproducibility. *)

val recommended_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: a sensible default worker count
    for this machine (1 on a single-core host). *)

val map_range : ?jobs:int -> n:int -> (int -> 'a) -> 'a array
(** [map_range ~jobs ~n f] is [Array.init n f] computed by up to [jobs]
    domains (default {!recommended_jobs}).  Chunks of the index range are
    handed out through a shared atomic cursor; each index is evaluated
    exactly once, by exactly one domain.  If any [f i] raises, the first
    exception observed is re-raised after all domains have been joined;
    so is a failed [Domain.spawn] (the runtime allows 128 domains, the
    calling one included), after joining the domains already spawned.
    [jobs <= 1] runs serially in the calling domain. *)

val search : ?jobs:int -> n:int -> (int -> 'a option) -> 'a option
(** [search ~jobs ~n f] evaluates [f] over [\[0, n)] in parallel and returns
    the hit with the {e smallest} index — exactly what a serial
    left-to-right scan returns, at every [jobs].  Determinism costs only a
    little completeness of the early exit: indices {e above} the best hit
    found so far are skipped, indices below it are always evaluated.  Used
    by the model checker to hunt for the first counterexample across
    domains without making "first" scheduling-dependent. *)
