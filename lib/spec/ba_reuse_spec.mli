(** Formal model of the Section VI slot-reuse extension.

    The paper sketches a sender that reuses acknowledged positions before
    earlier messages are acknowledged: "suppose message 0 through 5 were
    sent, but only messages 3 through 5 were acknowledged. It would then
    be possible … to reuse positions 3 through 5 for sending more
    messages before messages 0, 1, and 2 were received."

    This spec is the guarded-action form of {!Blockack.Sender_multi.create}
    with [~lead]:

    - the sender may have at most [w] {e unacknowledged} messages, but
      may run ahead of [na] by up to [lead >= w] positions
      ([ns < na + lead]);
    - the receiver buffers a [lead]-wide band ([nr, nr + lead));
    - wire sequence numbers are carried modulo [n >= 2 * lead];
    - retransmission uses the Section IV per-message guard.

    [check] verifies the adapted invariant — assertion 6 with [lead] as
    the band width plus the new resource bound
    [|unacknowledged outstanding|] ≤ [w] — together with assertions 7, 8
    and ghost-checked wire reconstruction. Exhaustive exploration thus
    certifies the extension the same way Sections III–V certify the base
    protocol, including that states with [ns - na > w] (actual reuse)
    are reached. It is {!Ba_kernel} run with a lead, a modulus and
    action 2′. *)

module Make (P : sig
  val w : int
  (** unacknowledged-message budget *)

  val lead : int
  (** how far [ns] may run ahead of [na]; >= w *)

  val n : int
  (** wire modulus; >= 2 * lead *)

  val limit : int
end) : Spec_types.SPEC with type state = Ba_kernel.state

val default : w:int -> ?lead:int -> ?n:int -> limit:int -> unit -> Spec_types.spec
(** [lead] defaults to [2 * w]; [n] to [2 * lead]. *)
