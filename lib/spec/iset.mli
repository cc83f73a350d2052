(** Finite set of non-negative integers with a canonical representation
    (strictly increasing list), so that spec states containing sets can be
    compared and hashed structurally by the model checker. *)

type t

val empty : t
val is_empty : t -> bool
val mem : int -> t -> bool
val add : int -> t -> t
val remove : int -> t -> t
val cardinal : t -> int
val elements : t -> int list
val of_list : int list -> t
val exists : (int -> bool) -> t -> bool
val max_elt : t -> int option
val add_range : lo:int -> hi:int -> t -> t
(** Add all of [lo, hi] inclusive. *)

val pp : Format.formatter -> t -> unit
