(** Bounded delay distributions for the simulated links.

    Every distribution has a finite maximum ({!max_delay}); the protocol's
    conservative timeout relies on that bound to implement the paper's
    "channel is empty" predicate (messages age out of the channel). *)

type t =
  | Constant of int  (** Fixed delay. *)
  | Uniform of int * int  (** Inclusive range [lo, hi]. *)
  | Truncated_exp of { mean : float; cap : int }
      (** Exponential with the given mean, truncated at [cap]. *)

val sample : t -> Ba_util.Rng.t -> int
(** Draw a delay in ticks; always within [0, max_delay]. *)

val max_delay : t -> int
(** Least upper bound on any sampled delay. *)

val mean : t -> float
(** Analytic mean of the (truncated) distribution, for reporting.
    For [Truncated_exp] this is the mean of the untruncated law capped
    crudely — used only as a descriptive figure. *)
