(** Fixed-width-bin histogram with ASCII rendering, used by the CLI tools
    to show latency and recovery-time distributions. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** Values below [lo] land in the first bin, at or above [hi] in the last.
    Requires [lo < hi] and [bins > 0]. *)

val add : t -> float -> unit
val total : t -> int
val counts : t -> int array
val bin_range : t -> int -> float * float
(** Bounds of bin [i]. *)

val render : ?width:int -> t -> string
(** Multi-line bar rendering; [width] bounds the longest bar. *)
