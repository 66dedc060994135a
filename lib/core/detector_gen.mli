(** Constructive detector generators, one per named predicate.

    Each generator returns a detector whose histories satisfy the
    corresponding {!Predicate} {e by construction}; the engine's online check
    independently re-verifies this in every experiment.  All generators draw
    from an explicit {!Dsim.Rng.t}, so runs are reproducible from a seed. *)

val omission : Dsim.Rng.t -> n:int -> f:int -> Detector.t
(** Satisfies [Predicate.omission ~f]: a fixed faulty-sender set [F] of size
    at most [f] is sampled once; every round every process misses an
    arbitrary subset of [F] (never itself). *)

val crash : Dsim.Rng.t -> n:int -> f:int -> Detector.t
(** Satisfies [Predicate.crash ~f]: processes crash at random rounds (at most
    [f] in total; each not-yet-crashed process crashes with probability
    0.3 per round).  A process crashing at round [r] is missed by a random
    (possibly empty) subset of receivers at [r] and by everybody
    afterwards, which is exactly the crash-closure predicate. *)

val async : Dsim.Rng.t -> n:int -> f:int -> Detector.t
(** Satisfies [Predicate.async_resilient ~f]: independent uniform fault sets
    of size at most [f].  Reuses one output array across rounds (see
    {!Detector.next}), so a steady-state query allocates nothing. *)

val async_mixed : Dsim.Rng.t -> n:int -> f:int -> t:int -> Detector.t
(** Satisfies [Predicate.async_mixed ~f ~t]: each round a witness set [Q] of
    size at most [t] is drawn; members of [Q] miss up to [t] processes,
    everybody else up to [f]. *)

val shared_memory : Dsim.Rng.t -> n:int -> f:int -> Detector.t
(** Satisfies [Predicate.shared_memory ~f]: per round, one process is chosen
    that nobody suspects; all fault sets avoid it and have size at most
    [f]. *)

val iis : Dsim.Rng.t -> n:int -> f:int -> Detector.t
(** Satisfies [Predicate.snapshot ~f]: per round an ordered partition
    [B₁, …, B_m] of the processes is drawn with [|B₁| ≥ n − f]; a process in
    block [B_j] sees exactly [B₁ ∪ … ∪ B_j] — the iterated-immediate-snapshot
    structure of item 5. *)

val k_set : Dsim.Rng.t -> n:int -> k:int -> Detector.t
(** Satisfies [Predicate.k_set ~k]: per round a common set [C] and an
    uncertainty set [U] with [|U| < k] are drawn; process [i]'s fault set is
    [C ∪ Uᵢ] for a private [Uᵢ ⊆ U], so the union minus the intersection is
    inside [U].  Reuses one output array across rounds (see
    {!Detector.next}). *)

val antisymmetric : Dsim.Rng.t -> n:int -> f:int -> Detector.t
(** Satisfies [Predicate.async_resilient ~f] ∧
    [Predicate.antisymmetric_misses] — item 4's alternative ingredients,
    {e without} forcing anyone to be seen by all: missing relations may form
    cycles, which is exactly what the known-by-all analysis (E14) stresses. *)

val identical : Dsim.Rng.t -> n:int -> Detector.t
(** Satisfies [Predicate.identical_views] (equation 5): one random proper
    subset per round, handed to every process. *)

val detector_s : Dsim.Rng.t -> n:int -> Detector.t
(** Satisfies [Predicate.detector_s]: one immortal process is sampled and
    never suspected by anyone; all other fault sets are arbitrary. *)
