(** Summary statistics for per-trial observations.

    Experiment tables aggregate hundreds of per-trial measurements into one
    cell; this module is the shared vocabulary for doing so: count, mean,
    sample standard deviation, extrema, and a normal-approximation
    95% confidence interval for the mean, printed by {!pp}. *)

type t = private {
  count : int;
  mean : float;  (** [nan] when [count = 0]. *)
  stddev : float;
      (** Sample standard deviation (Bessel-corrected, [n - 1] denominator);
          [0.] when [count = 1], [nan] when [count = 0]. *)
  min : float;  (** [nan] when [count = 0]. *)
  max : float;  (** [nan] when [count = 0]. *)
}

val of_array : float array -> t

val of_ints : int array -> t

val pp : Format.formatter -> t -> unit
(** ["mean ± h (n=…, sd=…, min=…, max=…)"], [h = 1.96 * stddev / sqrt
    count] the half-width of the normal-approximation 95% interval for
    the mean ([0] when [count = 1]); ["n=0"] when empty. *)
