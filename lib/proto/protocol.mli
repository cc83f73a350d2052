(** The interface every simulated protocol implements.

    A protocol is a sender half and a receiver half, each driven entirely
    by callbacks: the harness wires [tx] into a lossy {!Ba_channel.Link}
    and feeds arriving messages back into [sender_on_ack] /
    [receiver_on_data]. The sender pulls application payloads through the
    [next_payload] supplier whenever its window has room, so flow control
    stays inside the protocol where it belongs. *)

module type S = sig
  val name : string

  type sender
  type receiver

  val create_sender :
    Ba_sim.Engine.t ->
    Proto_config.t ->
    tx:(Wire.data -> unit) ->
    next_payload:(unit -> string option) ->
    sender
  (** [next_payload] returns [None] when the application has nothing more
      to send; the sender calls it again after acknowledgments open the
      window. *)

  val create_receiver :
    Ba_sim.Engine.t ->
    Proto_config.t ->
    tx:(Wire.ack -> unit) ->
    deliver:(string -> unit) ->
    receiver
  (** [deliver] receives payloads in application order, exactly once each
      (for a correct protocol — the harness counts violations). *)

  val sender_on_ack : sender -> Wire.ack -> unit
  val receiver_on_data : receiver -> Wire.data -> unit

  val sender_pump : sender -> unit
  (** Ask the sender to (re)fill its window from [next_payload]; called
      once by the harness at start and harmless at any other time. *)

  val sender_done : sender -> bool
  (** Every payload ever accepted from [next_payload] is acknowledged and
      the supplier is exhausted. *)

  val sender_outstanding : sender -> int
  val sender_retransmissions : sender -> int

  val ack_wire_bytes : int
  (** Size of this protocol's acknowledgment on the wire. *)

  (** {2 Crash–restart lifecycle}

      Protocols with [crash_tolerant = true] support faulting the
      processes, not just the channel: [*_crash] wipes an endpoint's
      volatile state and makes it deaf until [*_restart]. What restart
      means is the protocol's business (the block-ack endpoints bump an
      incarnation epoch and run a resync handshake when the config's
      [resync_epochs] is set, or come back zeroed as a negative control
      when it is not). Protocols with [crash_tolerant = false] raise
      [Invalid_argument] from all four lifecycle calls; campaign runners
      must skip the crash fault class for them. *)

  val crash_tolerant : bool

  val sender_crash : sender -> unit
  val sender_restart : sender -> unit
  val receiver_crash : receiver -> unit
  val receiver_restart : receiver -> unit

  val sender_resync_rounds : sender -> int
  (** Handshake frames this sender sent while resynchronising (0 for
      protocols without a handshake). *)

  val receiver_resync_rounds : receiver -> int

  val receiver_restore : receiver -> epoch:int -> pos:int -> unit
  (** Rebuild a freshly created receiver as the next incarnation of a
      dead process: adopt the durable delivered count [pos] and the new
      incarnation [epoch] (persisted + 1), then run the POS handshake —
      the cross-process analogue of [receiver_crash]+[receiver_restart].
      Raises [Invalid_argument] when [crash_tolerant] is false. *)

  (** {2 Overload accounting and backpressure}

      Hooks for the fabric's memory accounting and graceful degradation.
      [*_mem_bytes] report the payload bytes an endpoint currently
      buffers (retransmit queue / reassembly window); protocols that do
      not track memory report 0 and are simply invisible to the
      accountant. [sender_clamp_window] caps a sender's effective window
      (the backpressure path; a no-op where unsupported).
      [receiver_pressure_dropped] counts in-window frames refused for
      buffer-full under an [rx_budget]. *)

  val sender_mem_bytes : sender -> int
  val receiver_mem_bytes : receiver -> int
  val sender_clamp_window : sender -> int -> unit
  val receiver_pressure_dropped : receiver -> int
end

type t = (module S)

(** Drop-in stubs for protocols that predate (or cannot support) the
    crash lifecycle: [crash_tolerant = false], lifecycle calls raise. *)
module No_crash (N : sig
  val name : string

  type sender
  type receiver
end) : sig
  val crash_tolerant : bool
  val sender_crash : N.sender -> unit
  val sender_restart : N.sender -> unit
  val receiver_crash : N.receiver -> unit
  val receiver_restart : N.receiver -> unit
  val sender_resync_rounds : N.sender -> int
  val receiver_resync_rounds : N.receiver -> int
  val receiver_restore : N.receiver -> epoch:int -> pos:int -> unit
end

(** Drop-in stubs for protocols without memory accounting or a
    backpressure path: zero bytes reported, clamp is a no-op. *)
module No_overload (N : sig
  type sender
  type receiver
end) : sig
  val sender_mem_bytes : N.sender -> int
  val receiver_mem_bytes : N.receiver -> int
  val sender_clamp_window : N.sender -> int -> unit
  val receiver_pressure_dropped : N.receiver -> int
end
