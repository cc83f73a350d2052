(** Fixed-capacity circular buffer indexed by absolute sequence number.

    Selective repeat's out-of-order receive buffer and Stenning's set of
    acknowledged messages use it: windows of at most [w] live entries
    whose absolute indices grow without bound. Storage is the paper's
    bounded-array refinement ([ackd]/[rcvd] accessed modulo [w],
    Section V). A slot holds at most one value and is addressed by its
    absolute index. *)

type 'a t

val create : int -> 'a t
(** [create capacity] makes an empty buffer of [capacity] slots.
    Requires [capacity > 0]. *)

val set : 'a t -> int -> 'a -> unit
(** [set t i v] stores [v] at absolute index [i]. Requires that no live
    entry with index [j], [j <> i], [j ≡ i (mod capacity)] is present
    (enforced: raises [Invalid_argument] on slot collision). *)

val get : 'a t -> int -> 'a option
(** [get t i] is the value stored for absolute index [i], if any. *)

val mem : 'a t -> int -> bool

val remove : 'a t -> int -> unit
(** Clear the entry for absolute index [i] (no-op if absent). *)

val occupancy : 'a t -> int
(** Number of live entries. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Iterate over live (index, value) pairs in unspecified order. *)

val clear : 'a t -> unit
