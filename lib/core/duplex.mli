(** Duplex sessions with piggybacked block acknowledgments.

    The paper studies one data direction with a dedicated acknowledgment
    channel. Deployed window protocols (the paper cites ARPAnet, SNA, the
    ISO standard) run data both ways and piggyback acknowledgments on
    reverse-direction data frames. This module composes one
    {!Sender_multi} and one {!Receiver} per side into such a session:

    - every outbound data frame carries the latest pending block
      acknowledgment for the opposite direction, for free;
    - an acknowledgment with no data to ride on is flushed as a pure-ack
      frame [piggyback_hold] ticks after the latest one (0 = never wait);
      adjacent ones held meanwhile widen into one block, in the
      {!Ba_proto.Ack_hold} the UDP server also merges with.

    Soundness: holding an acknowledgment extends its effective transit
    time, so the usual timeout bound becomes
    [rto > 2 * max delay + ack_coalesce + piggyback_hold]. *)

type frame = {
  seq : int option;  (** [None] for a pure-ack frame *)
  payload : string;  (** empty for pure-ack frames *)
  pack : Ba_proto.Wire.ack option;  (** piggybacked acknowledgment *)
}

type t
type endpoint

val create :
  ?seed:int ->
  ?config:Config.t ->
  ?piggyback_hold:int ->
  ?loss:float ->
  ?delay:Ba_channel.Dist.t ->
  on_receive_a:(string -> unit) ->
  on_receive_b:(string -> unit) ->
  unit ->
  t
(** Two endpoints, A and B, joined by two simulated links (one per
    direction) sharing the given loss and delay. [on_receive_a] fires
    for messages arriving at A (i.e. sent by B), and vice versa.
    Defaults: {!Config.default} with a [2w] wire modulus,
    [piggyback_hold = 15], lossless, delay [Uniform (40, 60)].

    Raises [Invalid_argument] when [piggyback_hold < 0]; when the wire
    modulus is bounded and [rto <= 2 * max delay + ack_coalesce +
    piggyback_hold] (the soundness bound above); and when [max_transit]
    is set with [piggyback_hold > 0], because {!Config.hold_duration},
    the sender's retransmission-frontier hold, does not count the
    piggyback hold.

    With [~piggyback_hold:0] and traffic from A only, the session is the
    paper's one-way protocol: B's receiver acknowledges at once in pure
    ack frames. *)

val a : t -> endpoint
val b : t -> endpoint

val send : endpoint -> string -> unit
(** Queue a message for the opposite endpoint. *)

val run : ?until:int -> t -> unit
val idle : t -> bool
(** All submitted messages in both directions delivered and
    acknowledged. *)

val counters : endpoint -> Ba_util.Counters.t
(** A block of the endpoint's counts: [Messages] it was given to send,
    [Delivered] to it, the frames leaving it — [Data_sent] data frames
    and [Acks_sent] pure-ack frames, every frame one or the other —
    [Piggybacked_acks] (acks that travelled on a data frame) and its
    sender's [Retransmissions]. *)

val engine : t -> Ba_sim.Engine.t
