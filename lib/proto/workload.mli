(** Deterministic application workloads.

    A workload is a finite sequence of self-describing payloads: each
    embeds its index, so the harness can verify ordering, uniqueness and
    integrity of what the receiver delivers without keeping a copy of
    every message. *)

val payload : seed:int -> size:int -> int -> string
(** [payload ~seed ~size i] is the [i]-th payload: an ["m:<i>:"] prefix
    padded with seeded pseudo-random filler up to [size] bytes (or longer
    if the prefix alone exceeds [size]). Deterministic in [(seed, size, i)]. *)

val matches : seed:int -> size:int -> int -> string -> bool
(** [matches ~seed ~size i s] is [String.equal s (payload ~seed ~size i)]
    for [i >= 0] and [false] for [i < 0], decided in place: it allocates
    nothing and stops at the first differing byte. *)

val index_of : string -> int option
(** Parse the embedded index back out of a payload. *)

val index : string -> int
(** [index_of] without the option: the embedded index, or [-1] when [s]
    is not a workload payload. Allocates nothing. *)

val supplier : seed:int -> size:int -> count:int -> unit -> string option
(** A stateful pull source yielding payloads [0 .. count-1] then [None]
    forever. *)
