(** Block-acknowledgment sender with per-message timers (Section IV).

    Functionally like {!Sender}, but every outstanding message carries
    its own retransmission timer (the paper's action 2′). When a whole
    block acknowledgment is lost, all covered timers expire around the
    same time and the covered messages are retransmitted back-to-back, so
    recovery costs roughly one timeout plus one round trip — instead of
    the simple sender's one full timeout period per covered message.

    Soundness still requires [rto > 2 * max link delay + ack_coalesce],
    which makes an expired per-message timer imply that no copy of that
    message or of its acknowledgment is in transit. Everything but the
    timers is {!Sender_core}, shared with {!Sender}.

    The per-message timers cost two ints each, not an event each: every
    slot keeps its deadline and the insertion stamp
    ({!Ba_sim.Engine.take_stamp}) its own event would have had, and the
    sender arms one {!Ba_sim.Engine.slot} at the earliest of them
    ({!Ba_sim.Engine.slot_arm_keyed}). Expiries therefore fire at the same
    ticks and in the same order, same-tick ties with every other event
    included, as one event per message would; a sender has at most one
    pending engine event, and none after {!crash}. Like the core's
    buffers, the timer columns are sized to the flight: they start
    empty and double up to the band as [ns - na] grows.

    {2 Section VI: aggressive reuse of acknowledged positions}

    The paper sketches a more complex sender that, when messages 3–5 are
    acknowledged while 0–2 are still outstanding, goes ahead and uses
    those freed positions for new data instead of stalling at the window
    edge. The price is extra bookkeeping and buffer space, and a wider
    sequence-number band in flight.

    [create ~lead] realises the sketch: the sender may have at most
    [window] {e unacknowledged} messages at any time (the same resource
    bound as the classic protocol), but may run ahead of the lowest
    unacknowledged message [na] by up to [lead >= window] positions.
    In-flight data then spans [na, na + lead), so both endpoints size
    their codecs by [lead] and let their buffers grow up to it, and a
    wire modulus of at least [2 * lead] is required — exactly the
    paper's "tradeoff between the added complexity versus the potential
    gain in performance". With
    [lead = window] (the default) this is the Section IV sender. *)

include Sender_core.S

val create :
  ?lead:int ->
  Ba_sim.Engine.t ->
  Config.t ->
  tx:(Ba_proto.Wire.data -> unit) ->
  next_payload:(unit -> string) ->
  t
(** [config.window] bounds unacknowledged messages; [lead] (default
    [config.window]) bounds [ns - na]. Requires [lead >= config.window]
    and, when a wire modulus is set, [modulus >= 2 * lead]. The budget,
    the window clamp and the congestion window narrow both bounds alike. *)

val unacked : t -> int
(** Messages in [[na, ns)] not yet acknowledged: at most [outstanding],
    and below it once acknowledgments arrive past a gap. *)

val rto_now : t -> int
(** The timeout currently used when arming timers: the configured [rto],
    or the estimator's value when [adaptive_rto] is set (Jacobson/Karels
    with Karn's rule and exponential backoff — see {!Rtt_estimator}). *)

val srtt : t -> float option
(** Smoothed round-trip estimate, when adaptive timeouts are enabled. *)

val cwnd : t -> int
(** Current AIMD congestion window ([dynamic_window] mode); equals 1 and
    is unused otherwise. *)
