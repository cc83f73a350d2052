(** Sequence-number codec: Section V on the wire.

    Endpoints keep full-width sequence numbers internally; the codec maps
    them to wire numbers modulo [n] and reconstructs full numbers on
    receipt using the paper's function [f] with the anchors the proof
    prescribes: [na] on the sender side (assertions 9–10) and
    [max 0 (nr - w)] on the receiver side (assertion 11). With
    [wire_modulus = None] the codec is the identity (unbounded wire
    numbers, the Section II protocol).

    A codec is its wire modulus and nothing else, so an endpoint keeps no
    codec of its own: it checks its config's modulus once with {!create}
    and passes that same value to every call after. The window, which
    only the receiver's anchor needs, is an argument of {!decode_data}. *)

type t = int option
(** The wire modulus; [None] for unbounded wire numbers. *)

val create : window:int -> wire_modulus:int option -> t
(** [wire_modulus], once checked against [window]: raises
    [Invalid_argument] if the modulus is smaller than [2 * window] — the
    bound Section V proves necessary and sufficient. *)

val encode : t -> int -> int
(** Full sequence number to wire number. *)

val is_wire : t -> int -> bool
(** Whether {!encode} can produce [wire]: any number when unbounded, one
    in [\[0, n)] under modulus [n]. The decoders require it, so a
    receiving endpoint drops a frame that fails it as corrupt: only a
    forged frame can carry such a number. *)

val decode_ack : t -> na:int -> int -> int
(** Reconstruct an acknowledgment bound at the sender, anchored at the
    sender's [na]. Correct for true values in [na, na + n). *)

val decode_data : t -> window:int -> nr:int -> int -> int
(** Reconstruct a data sequence number at the receiver, anchored at
    [max 0 (nr - window)] for the [window] the codec was checked
    against. Correct for true values within the paper's
    assertion-11 band. *)

val span : t -> lo:int -> hi:int -> int
(** Number of wire sequence numbers covered by the inclusive wire range
    [lo, hi] (respecting wraparound); [hi - lo + 1] when unbounded. *)

val shift : t -> int -> int -> int
(** [shift t wire k]: the wire number [k] positions after [wire]. *)
