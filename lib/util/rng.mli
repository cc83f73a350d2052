(** Deterministic pseudo-random number generator.

    A self-contained xoshiro256** generator seeded through splitmix64.
    Every stochastic component of the simulator draws from an explicit
    [t] so that a run is reproducible from its seed alone. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. Distinct seeds
    give independent-looking streams. *)

val copy : t -> t
(** Independent clone with identical future output. *)

val split : t -> t
(** [split rng] draws from [rng] to seed a fresh generator. Use to give
    each component its own stream while preserving determinism. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int rng bound] is uniform on [0, bound). Requires [bound > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in rng lo hi] is uniform on the inclusive range [lo, hi].
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float rng bound] is uniform on [0, bound). *)

val bernoulli : t -> float -> bool
(** [bernoulli rng p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential rng mean] draws from Exp with the given mean. *)

val geometric : t -> float -> int
(** [geometric rng p] is the number of failures before the first success
    of a Bernoulli(p) sequence; 0 when [p >= 1]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val fill_symbols : seed:int -> string -> Bytes.t -> pos:int -> len:int -> unit
(** [fill_symbols ~seed alphabet b ~pos ~len] writes [len] symbols of
    [alphabet] into [b] from [pos]: exactly the bytes of
    [let r = create seed in alphabet.[int r (String.length alphabet)]]
    repeated [len] times, computed without allocating. Raises
    [Invalid_argument] on an empty alphabet or a range outside [b]. *)

val symbols_match : seed:int -> string -> string -> pos:int -> len:int -> bool
(** [symbols_match ~seed alphabet s ~pos ~len] is [true] iff [s]'s
    [len] bytes from [pos] are the ones {!fill_symbols} would write.
    Allocates nothing and stops at the first differing byte. Raises
    like {!fill_symbols}. *)
