(** Wire messages exchanged by the simulated protocols.

    Data messages carry a sequence number (possibly modulo-encoded,
    depending on the protocol's configuration) and an opaque payload.
    Acknowledgments carry the paper's pair [(lo, hi)]; protocols that use
    single-number acks (go-back-N, selective repeat) set [lo = hi], which
    also gives a uniform basis for byte accounting.

    Both message kinds additionally carry a frame checksum, standing in
    for a link-layer FCS. The paper's channel model has no corruption,
    so the checksum is not part of its protocol — it exists so the
    adversarial channel ({!Ba_channel.Fault_plan}) can flip bits and the
    robust endpoints can discard the damage instead of delivering it.
    Construct messages with {!make_data}/{!make_ack} (which compute the
    checksum) and validate arrivals with {!data_ok}/{!ack_ok}. Like a
    hardware FCS, the checksum is excluded from the byte-overhead
    accounting below.

    Frames additionally carry an incarnation {e epoch} and a frame
    {e kind} for the crash–restart machinery: a restarted endpoint bumps
    its epoch (stable storage) and runs a 3-message resync handshake —
    REQ (a restarted sender asks for the receiver's position), POS (the
    receiver states its stable delivered count), FIN (the sender
    confirms cut-over; fresh same-epoch data acts as an implicit FIN).
    Epoch-0 [Msg]/[Ack] frames are bit-identical to the pre-crash wire
    format, so protocols that never restart are unaffected. *)

type data_kind = Msg | Sync_req | Sync_fin

type data = {
  mutable seq : int;
  mutable payload : string;
  mutable epoch : int;
  mutable dkind : data_kind;
  mutable check : int;
}
(** Fields are mutable only so frames can be pooled (see
    {!release_data}); protocol code treats frames as immutable values. *)

type ack_kind = Ack | Sync_pos

type ack = {
  mutable lo : int;
  mutable hi : int;
  mutable epoch : int;
  mutable akind : ack_kind;
  mutable check : int;
}

val make_data : seq:int -> payload:string -> data
val make_ack : lo:int -> hi:int -> ack

val make_data_e : epoch:int -> seq:int -> payload:string -> data
(** [Msg] frame stamped with the sender's current incarnation epoch. *)

val make_ack_e : epoch:int -> lo:int -> hi:int -> ack

val make_sync_req : epoch:int -> data
(** Handshake message 1: a restarted sender (fresh epoch, empty volatile
    state) asks the receiver where to resume. *)

val make_sync_pos : epoch:int -> pos:int -> ack
(** Handshake message 2: the receiver's stable delivered count [pos],
    carried as an absolute position in [lo] (mirrored in [hi]) — resync
    is rare, so it is exempt from the wire modulus. Also sent
    spontaneously by a restarted receiver (the receiver is the position
    authority, so its restart skips REQ). *)

val make_sync_fin : epoch:int -> data
(** Handshake message 3: the sender confirms it has adopted [pos] and
    the new epoch; the receiver stops resending POS. *)

val data_ok : data -> bool
(** The stored checksum matches the contents; receivers must discard
    (and never deliver or acknowledge) a failing frame. *)

val ack_ok : ack -> bool
(** Senders must ignore a failing acknowledgment — acting on a mangled
    block range could acknowledge data the receiver never accepted. *)

val data_checksum : seq:int -> payload:string -> epoch:int -> dkind:data_kind -> int
val ack_checksum : lo:int -> hi:int -> epoch:int -> akind:ack_kind -> int

val corrupt_data : data -> data
(** Deterministically damage the frame without fixing up its checksum
    (flips a payload bit, or the sequence number when the payload is
    empty) — the mangle function links install for [Corrupt] verdicts. *)

val corrupt_ack : ack -> ack

val release_data : data -> unit
(** Return a frame to the domain-local pool that {!make_data} /
    {!make_data_e} draw from, making steady-state frame construction
    allocation-free. Callers must own the frame exclusively: nothing may
    touch it after release (its payload reference is cleared; the
    payload string itself is unaffected). Releasing is optional — an
    unreleased frame is GC'd as usual. {!Ba_channel.Link}'s [release]
    hook is the intended call site. *)

val release_ack : ack -> unit

val ack_extends :
  wire_modulus:int option -> cap:int -> lo:int -> hi:int -> epoch:int -> ack -> bool
(** [ack_extends ~wire_modulus ~cap ~lo ~hi ~epoch a]: a held block
    acknowledgment [\[lo, hi\]] of incarnation [epoch] and the next one,
    [a], can go out as the single block [\[lo, a.hi\]]. True iff [a] is an
    [Ack] (not [Sync_pos]) of the same epoch, [a.lo] is the successor of
    [hi] (modulo [n] when [wire_modulus = Some n]), and the merged block
    spans at most [cap] sequence numbers. With [cap] at most the window
    (below a modulus of at least twice the window) the merged block is
    always decodable, and it acknowledges exactly the union of the two.
    The one coalescing rule, applied by {!Ack_hold} for every layer that
    holds acknowledgments back. *)

val ack_bytes_block : int
(** Bytes of a two-number block acknowledgment. *)

val ack_bytes_single : int
(** Bytes of a classic one-number acknowledgment. *)

val data_bytes : data -> int
(** A fixed 8-byte header plus payload length: the overhead accounting's
    cost of one data message. *)

val pp_data : Format.formatter -> data -> unit
val pp_ack : Format.formatter -> ack -> unit
