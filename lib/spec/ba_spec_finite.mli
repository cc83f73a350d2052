(** Section V: block acknowledgment with finite (wire) sequence numbers.

    Internally the processes still count with unbounded integers, but
    every message crosses the wire carrying its sequence number modulo
    [n]; the receiver of a message reconstructs the true number with the
    paper's function [f] (here {!Ba_util.Modseq.reconstruct}), anchored at
    [na] for acknowledgments and at [max 0 (nr - w)] for data.

    Each in-transit message carries a ghost copy of the true (unbounded)
    number alongside the wire number. The ghost never influences protocol
    behaviour — transitions use only reconstructed wire values — but
    {!Make.check} compares reconstruction against the ghost, so the model
    checker proves that no information is lost exactly when [n >= 2w],
    and exhibits a counterexample when [n < 2w]. The actions, decoding and
    checks are {!Ba_kernel}'s, run with a modulus. *)

module Make (P : sig
  val w : int

  val n : int
  (** wire sequence-number modulus; the paper proves [n = 2w] suffices *)

  val limit : int
end) : Spec_types.SPEC with type state = Ba_kernel.state

val default : w:int -> ?n:int -> limit:int -> unit -> Spec_types.spec
(** [n] defaults to [2 * w]. *)
