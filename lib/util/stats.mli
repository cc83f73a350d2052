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
(** A copy of all samples, in insertion order. *)

val percentile : t -> float -> float
(** [percentile t q] with [q] in [0, 1]; linear interpolation between
    order statistics. Raises [Invalid_argument] when empty. *)

val summary : t -> summary
(** Raises [Invalid_argument] when empty. *)

val pp_summary : Format.formatter -> summary -> unit

val ci95 : float list -> float * float
(** Mean and 95% normal-approximation half-width over a sample list. *)
