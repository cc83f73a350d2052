(** The interface every simulated protocol implements.

    A protocol is a sender half and a receiver half, each driven entirely
    by callbacks: the harness wires [tx] into a lossy {!Ba_channel.Link}
    and feeds arriving messages back into [sender_on_ack] /
    [receiver_on_data]. The sender pulls application payloads through the
    [next_payload] supplier whenever its window has room, so flow control
    stays inside the protocol where it belongs. *)

exception Exhausted
(** What a [next_payload] supplier raises when it has nothing to send
    right now, as [Queue.take] raises [Queue.Empty]: a pull returns the
    payload itself, so taking one allocates nothing beyond the payload.
    Raise it with [raise_notrace]. *)

(** {1 Optional capabilities}

    The paper's protocol is the data path alone. Crash–restart recovery
    and buffer-pressure hooks are extensions that only some protocols
    implement, so {!S} carries each as an option of a record of
    operations: a protocol without the capability says [None], and a
    caller that needs it matches the option once. Asking a protocol for
    a lifecycle it lacks is therefore a type-level impossibility rather
    than a run-time error. The records hold closures: test them with
    [match] or [Option.is_some], never with [=]. *)

type ('s, 'r) lifecycle = {
  sender_crash : 's -> unit;
      (** Wipe the sender's volatile state; it is deaf until restarted. *)
  sender_restart : 's -> unit;
  receiver_crash : 'r -> unit;
  receiver_restart : 'r -> unit;
  receiver_restore : 'r -> epoch:int -> pos:int -> unit;
      (** Rebuild a freshly created receiver as the next incarnation of a
          dead process: adopt the durable delivered count [pos] and the
          new incarnation [epoch] (persisted + 1), then run the POS
          handshake — the cross-process analogue of
          [receiver_crash]+[receiver_restart]. *)
}
(** Crash–restart lifecycle: faulting the processes, not just the
    channel. What restart means is the protocol's business: the
    block-ack endpoints bump an incarnation epoch and run a resync
    handshake when the config's [resync_epochs] is set, or come back
    zeroed as a negative control when it is not. Campaign runners skip
    the crash fault class for protocols without one, and the fabric's
    watchdog has no resync lever for them. *)

type ('s, 'r) overload = {
  sender_mem_bytes : 's -> int;
      (** Payload bytes the sender buffers (its retransmit queue). *)
  receiver_mem_bytes : 'r -> int;  (** Payload bytes in the reassembly window. *)
  sender_clamp_window : 's -> int -> unit;
      (** Cap the sender's effective window: the backpressure path. *)
  receiver_pressure_dropped : 'r -> int;
      (** In-window frames refused for buffer-full under an [rx_budget]. *)
}
(** Hooks for the fabric's memory accounting and graceful degradation.
    A protocol without them reports 0 bytes, ignores clamps and is
    invisible to the accountant. *)

module type S = sig
  val name : string

  type sender
  type receiver

  val validate : Proto_config.t -> unit
  (** Raises [Invalid_argument], with the same reason, exactly when
      building either endpoint with the config would:
      {!Proto_config.validate} plus the protocol's own constraints (the
      block-ack modulus of at least 2w, say). So a caller can check a
      config before building anything. *)

  val create_sender :
    Ba_sim.Engine.t ->
    Proto_config.t ->
    tx:(Wire.data -> unit) ->
    next_payload:(unit -> string) ->
    sender
  (** [next_payload] returns the next payload, or raises {!Exhausted}
      when the application has nothing more to send; the sender calls it
      again after acknowledgments open the window. Any string is a
      payload, the empty one included. *)

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

  val lifecycle : (sender, receiver) lifecycle option
  (** [None] for a protocol without crash–restart support. *)

  val overload : (sender, receiver) overload option
  (** [None] for a protocol without memory accounting or backpressure. *)
end

type t = (module S)
