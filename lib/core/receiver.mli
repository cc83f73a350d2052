(** Block-acknowledgment receiver (Sections II + V).

    Buffers out-of-order data messages in a window of [w] slots, delivers
    payloads to the application strictly in order, and acknowledges each
    accepted message exactly once, as part of one block acknowledgment
    [(nr, vr - 1)] covering a maximal contiguous run (actions 3–5).
    Already-accepted duplicates are re-acknowledged with a singleton
    [(v, v)] so a sender whose acknowledgment was lost can make progress
    (action 3's first branch).

    With [ack_coalesce > 0] the receiver holds a completed run open for
    that many ticks before flushing, letting a single acknowledgment
    cover data that arrives close together — the "one ack, many
    messages" behaviour the paper highlights over go-back-N. *)

type t

val create :
  Ba_sim.Engine.t ->
  Config.t ->
  tx:(Ba_proto.Wire.ack -> unit) ->
  deliver:(string -> unit) ->
  t

val on_data : t -> Ba_proto.Wire.data -> unit

val nr : t -> int
(** Next sequence number to accept; everything below is delivered. *)

val buffered : t -> int
(** Out-of-order payloads currently held. *)

val capacity : t -> int
(** Slots in the reassembly buffer: 0 until a frame is first buffered,
    then grown by doubling as arrivals reach further past [nr], never
    beyond the window. *)

val buffered_bytes : t -> int
(** Total payload bytes in the reassembly buffer (memory accounting). *)

val pressure_dropped : t -> int
(** Fresh in-window frames refused because the [rx_budget] was full.
    Never acknowledged, so the sender's timer retransmits them — a
    budget drop is behaviorally a channel loss. *)

val pressure_evicted : t -> int
(** Buffered out-of-order frames evicted by [Drop_furthest] to admit a
    frame nearer the delivery frontier. Likewise never acknowledged. *)

val dup_acks_sent : t -> int
(** Singleton re-acknowledgments of old duplicates. *)

val corrupt_dropped : t -> int
(** Data frames discarded because their checksum failed
    ({!Ba_proto.Wire.data_ok}) or their sequence number is one no
    {!Seqcodec.encode} could produce: never delivered, never
    acknowledged. *)

val flush : t -> unit
(** Force out any pending coalesced acknowledgment now. *)

(** {2 Crash–restart lifecycle}

    [crash] wipes the volatile state: the out-of-order buffer, [vr], all
    timers. The delivered count [nr] survives (delivery to the
    application is durable by definition — the bytes are in its file),
    as does the incarnation epoch when [resync_epochs] is set. While
    down, every arriving frame is ignored.

    [restart] with [resync_epochs]: bump the epoch and announce the
    stable position with a POS handshake frame, retried on a timer until
    the sender confirms with FIN (or implicitly, with fresh same-epoch
    data). Frames from earlier incarnations are rejected by epoch.

    [restart] without [resync_epochs] (negative control): come back with
    [nr = vr = 0] and no handshake — the stale-state failure mode. *)

val crash : t -> unit
val restart : t -> unit

val restore : t -> epoch:int -> pos:int -> unit
(** Rebuild a {e fresh} receiver as the next incarnation of a dead
    process: adopt the persisted delivered count [pos] and the new
    [epoch] (persisted epoch + 1 — the caller bumps, exactly as
    [restart] would have), then announce POS with retries until the
    sender confirms. This is [crash] + [restart] for the case where the
    process itself died and its successor only has stable storage — the
    real-transport server uses it after a kill. Raises
    [Invalid_argument] unless [resync_epochs] is set, [epoch >= 1],
    [pos >= 0] and the receiver is still pristine (nothing delivered,
    nothing buffered, epoch 0). *)

val syncing : t -> bool
(** Restarted and still announcing POS (no FIN / fresh data yet). *)
