(** Selective-repeat baseline with the restriction the paper ascribes to
    Stenning [14]: {e every data message is acknowledged by a distinct
    acknowledgment message} — acknowledgments are always singletons
    [(v, v)].

    The receiver buffers out-of-order arrivals and delivers in order,
    like the block-acknowledgment receiver, but acknowledges each
    reception individually and immediately (including duplicates). The
    sender is the per-message-timer block-ack sender, which handles
    singleton acknowledgments as the degenerate block case — the paper
    notes selective repeat {e is} block acknowledgment restricted to
    [(v, v)] acks. *)

val protocol : Ba_proto.Protocol.t

(** The receiver half is reused by the {!Stenning} baseline. *)

type receiver

val validate : Ba_proto.Proto_config.t -> unit
(** The config check both halves run: the wire modulus must be at least
    2w. *)

val create_receiver :
  Ba_sim.Engine.t ->
  Ba_proto.Proto_config.t ->
  tx:(Ba_proto.Wire.ack -> unit) ->
  deliver:(string -> unit) ->
  receiver

val receiver_on_data : receiver -> Ba_proto.Wire.data -> unit
