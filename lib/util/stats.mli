(** Descriptive statistics for experiment reporting. *)

type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

type t
(** A running accumulator (Welford) that also retains samples so that
    percentiles can be computed at summary time. Samples are ints (tick
    counts); they are kept as floats in one unboxed column. *)

val create : int -> t
(** [create n] sizes the column for [n] samples. Further samples grow
    it by doubling; a column sized 0 grows too. *)

val add : t -> int -> unit
(** Allocates nothing while the column has room. *)

val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Sample variance (n-1 denominator); 0 when fewer than two samples. *)

val to_array : t -> float array
(** All samples, in insertion order. A full column (one sized to its
    sample count, as a completed flow's is) is handed over as it is,
    without a copy: a later {!add} moves the accumulator to a fresh
    column, so the array returned is never written again. A column with
    room left is copied. Do not mutate the result. *)

val percentile : t -> float -> float
(** [percentile t q] with [q] in [0, 1]; linear interpolation between
    order statistics. Raises [Invalid_argument] when empty. Selects the
    two order statistics in linear expected time, without sorting, in a
    per-domain scratch column, so after warm-up (a column at least as
    long was summarised before on the same domain) it copies nothing.
    The result is bit-identical to interpolating over a full sort. *)

val summary : t -> summary
(** Raises [Invalid_argument] when empty. Selects the six order
    statistics its percentiles read, like {!percentile}: after warm-up
    it allocates only its result. *)

val pp_summary : Format.formatter -> summary -> unit

val ci95 : float list -> float * float
(** Mean and 95% normal-approximation half-width over a sample list. *)
