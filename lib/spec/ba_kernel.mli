(** Unbounded-storage kernel of the block-acknowledgment specs.

    The paper derives each protocol from the one before it by changing one
    thing: Section IV swaps action 2 for 2′, Section V re-encodes the wire
    modulo [n], and Section VI widens the flight band to a [lead]. This
    module writes each of those actions, the reconstruction check and the
    invariant view once. Sections II, IV, V and VI are values of
    {!params}, turned into a spec by {!spec}; [Ba_spec_pressure] adds its
    eviction actions to the Section IV parameters. The bounded-storage
    refinement (Vb and the crash specs) is {!Ba_bounded_kernel}.

    The specs the ROADMAP plans next extend this kernel rather than copy
    it. Item 2's receiver that also block-acks held out-of-order runs
    (after Jain, DEC-TR-342) is one more receive action; its sender side
    is {!recv_ack} as it stands, which marks a range without sliding
    [na] past a hole. Item 8's [stabilize] spec (after Dolev et al.) is
    one more environment action beside {!lose}. Item 7 asks for one copy
    of each mechanism; for the models, this module and
    {!Ba_bounded_kernel} are that copy. *)

type timer =
  | Whole_channel
      (** Action 2: resend [na] once both channels are empty and the
          receiver holds nothing unacknowledged (Section II). *)
  | Per_message
      (** Action 2′: resend any outstanding, unacknowledged [i] no copy
          of which — data or covering ack — is in transit (Section IV). *)

type params = {
  w : int;  (** window: the unacknowledged-message budget, > 0 *)
  lead : int option;
      (** Section VI: [ns] may run up to [lead >= w] past [na] while at
          most [w] messages are unacknowledged. [None] is the classic
          window, band [w]. *)
  n : int option;
      (** Section V: wire modulus. [None] sends unbounded numbers. *)
  limit : int;  (** number of data messages to transfer, >= 0 *)
  timer : timer;
}

type data = { wv : int; gv : int }
(** An in-transit data message: its wire number and its ghost (true)
    number. The ghost never drives a transition; the reconstruction check
    compares decoding against it. Without a modulus [wv = gv]. *)

type ack = { wi : int; wj : int; gi : int; gj : int }
(** An in-transit block acknowledgment: wire pair and ghost pair. *)

type state = {
  na : int;
  ns : int;
  ackd : Iset.t;
  nr : int;
  vr : int;
  rcvd : Iset.t;
  csr : data Ba_channel.Multiset.t;  (** data messages in transit, S -> R *)
  crs : ack Ba_channel.Multiset.t;  (** block acks in transit, R -> S *)
}

val validate : params -> unit
(** Raises [Invalid_argument "Ba_kernel: ..."] on a non-positive window, a
    lead below [w], a non-positive modulus (or one below [2 * lead]), or a
    negative limit. *)

val initial : state

val ack : params -> int -> int -> ack
(** The block acknowledgment of [i..j], wire numbers encoded. *)

val send_new : params -> state -> state Spec_types.transition list
(** Action 0 (0′ with a modulus): [ns < na + band] (and, with a lead,
    fewer than [w] unacknowledged) -> send [ns]. *)

val recv_ack : params -> state -> state Spec_types.transition list
(** Action 1 (1′): decode [(i, j)] against [na], mark [ackd[i..j]],
    advance [na]; one transition per distinct in-transit ack. *)

val timeout : params -> state -> state Spec_types.transition list
(** Action 2 or 2′, as [params.timer] selects. *)

val recv_data : params -> state -> state Spec_types.transition list
(** Action 3 (3′): decode [v] against [max 0 (nr - band)]; re-ack it as
    [(v, v)] when [v < nr], else mark [rcvd[v]]. *)

val advance_vr : state -> state Spec_types.transition list
(** Action 4: [rcvd[vr]] -> [vr := vr + 1]. *)

val send_ack : params -> state -> state Spec_types.transition list
(** Action 5: [nr < vr] -> send [(nr, vr - 1)]; [nr := vr]. *)

val lose : state -> state Spec_types.transition list
(** Environment: drop any one in-transit message. *)

val transitions : params -> state -> state Spec_types.transition list
(** Actions 0, 1, 2/2′, 3, 4, 5, then loss, in that order. *)

val check : params -> state -> string option
(** With a lead, the unacknowledged budget; with a modulus, that every
    in-transit wire number decodes to its ghost; then assertions 6–8,
    with assertion 6's band [lead] wide when there is a lead. *)

val terminal : params -> state -> bool
(** [na >= limit]. *)

val measure : state -> int
(** na + ns + nr + vr. *)

val pp : params -> Format.formatter -> state -> unit

module Spec (P : sig
  val params : params
end) : Spec_types.SPEC with type state = state
(** The spec these parameters describe. Does not validate them. Its
    name is the section the parameters reproduce, with their values:
    [blockack-II(w=2,limit=4)] (timer 2), [blockack-IV(w=2,limit=4)]
    (timer 2′), [blockack-V(w=2,n=4,limit=4)] (a modulus) and
    [blockack-VI-reuse(w=2,lead=4,n=8,limit=4)] (a lead). A timer other
    than the section's own is appended as [,timer=2] or [,timer=2']. *)

val spec : params -> Spec_types.spec
(** {!validate}, then {!Spec}. *)
