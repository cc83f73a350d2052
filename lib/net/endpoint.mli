(** Protocol endpoints over a real datagram transport.

    {!Server} wraps a protocol's receiver half and {!Client} its sender
    half behind the {!Codec}: frames out of the protocol are encoded
    and pushed through an impairment {!Shim} to the socket; decoded
    arrivals are fed back in. Each is one record of counters that holds
    the protocol's module and its endpoint together, as one existential
    value. Both halves stay pure engine programs — everything
    wall-clock lives in the {!Driver} that owns the socket.

    The server is the position authority (as in the resync handshake):
    it validates every delivered payload against the deterministic
    workload, folds the accepted stream into a running digest, and
    reports [(epoch, position, digest)] after each delivery so a
    process supervisor can persist them — the stable storage that makes
    a SIGKILL survivable. A fresh process restores by handing the
    persisted triple (epoch already bumped) to [?restore], which runs
    the protocol's [receiver_restore]: the receiver comes back as
    a new incarnation at the old position and re-announces it with POS
    until the sender cuts over.

    Frames cross the shim one at a time, so a fault plan's verdicts
    mean on a socket what they mean on a simulated link. Behind the
    shim each side batches what one burst produces: the client packs
    the data frames of one engine tick into one {!Codec.Batch}
    datagram, and the server merges the block acknowledgments of one
    socket drain into one ack, through the same {!Ba_proto.Ack_hold}
    as the duplex piggyback hold, flushed at the end of the tick. The
    {!Driver} unrolls containers on arrival, so neither half ever
    handles one.

    The client runs the {!Ba_proto.Watchdog} off real silence: a
    recurring engine event observes acknowledged progress through
    {!Ba_proto.Watchdog.check}, whose levers here are the sender's
    resync (epoch bump + REQ/POS/FIN) and the shim's gate: [Quarantine]
    closes it, [Release] reopens it and resyncs once more. A killed
    server is therefore detected by timeout, handled by handshake, and
    survived without operator help. A protocol without a crash lifecycle has no
    resync lever: its resyncs are counted and otherwise do nothing. *)

val expected_digest : wseed:int -> payload_size:int -> messages:int -> int
(** Digest of the full workload stream — what {!Server.digest} must
    equal after a complete, duplicate-free, in-order transfer. Both
    sides can compute it from the workload parameters alone, which is
    what makes the transfer checksummed end-to-end without either side
    keeping the payloads. *)

module Server : sig
  type t

  val create :
    engine:Ba_sim.Engine.t ->
    protocol:Ba_proto.Protocol.t ->
    config:Ba_proto.Proto_config.t ->
    messages:int ->
    payload_size:int ->
    wseed:int ->
    ?restore:int * int * int ->
    ?on_deliver:(epoch:int -> pos:int -> digest:int -> unit) ->
    ?plan:Ba_channel.Fault_plan.t ->
    ?impair_seed:int ->
    send:(Unix.sockaddr -> Bytes.t -> int -> unit) ->
    unit ->
    t
  (** [restore:(epoch, pos, digest)] rebuilds the receiver as
      incarnation [epoch] (the caller bumps the persisted epoch) at
      delivered position [pos] with the stream digest so far, through
      the protocol's {!Ba_proto.Protocol.lifecycle}; raises
      [Invalid_argument] for a protocol without one. [on_deliver] fires after every accepted delivery with the new
      durable state — write it down {e before} acknowledging the world,
      and a kill at any point loses nothing. [send] transmits one
      encoded datagram to the (learned) peer. *)

  val on_frame : t -> Codec.frame -> Unix.sockaddr -> unit
  (** Feed one decoded arrival. Any datagram — even one the protocol
      rejects as stale-epoch — teaches the server its peer's address,
      which is how a restarted process re-learns where to send POS.
      Keeps at most the frame's payload, so the frame may be a
      {!Driver}'s borrowed scratch frame. *)

  val complete : t -> bool
  (** Every workload payload delivered. *)

  val position : t -> int
  (** In-order deliveries accepted so far (includes a restored prefix). *)

  val epoch : t -> int
  (** Highest incarnation epoch the receiver has spoken (observed on
      its outgoing acknowledgments). *)

  val digest : t -> int
  val duplicates : t -> int
  val misordered : t -> int
  val corrupted : t -> int
  (** Deliveries whose payload failed validation against the workload. *)

  val acks_sent : t -> int
  (** Acknowledgment datagrams handed to the shim (its [Offered]
      count). For block-ack protocols this counts
      datagrams after merging: the adjacent block acknowledgments the
      receiver emits during one socket drain leave as one datagram
      from the {!Ba_proto.Ack_hold}, sent when the drain ends — so it
      can be far below the receiver's own ack count. Single-number-ack
      protocols send one datagram per ack. *)

  val resync_rounds : t -> int
  (** POS handshake frames the receiver sent, retries included, counted
      as they leave it. *)

  val shim_counters : t -> Ba_util.Counters.t
  (** The impairment shim's {!Shim.counters}. *)
end

module Client : sig
  type t

  val create :
    engine:Ba_sim.Engine.t ->
    protocol:Ba_proto.Protocol.t ->
    config:Ba_proto.Proto_config.t ->
    messages:int ->
    payload_size:int ->
    wseed:int ->
    ?watchdog:Ba_proto.Watchdog.config ->
    ?plan:Ba_channel.Fault_plan.t ->
    ?impair_seed:int ->
    send:(Bytes.t -> int -> unit) ->
    unit ->
    t
  (** [send] transmits one encoded datagram to the server (the client
      always knows its peer). Data frames reach it through the client's
      packer: the shim applies its verdict to each frame, and the
      frames it passes in one engine tick leave as one
      {!Codec.Batch} container of at most {!Codec.batch_cap} bytes,
      from a zero-delay engine slot that fires in the driver's next
      [sync] — one datagram per pumped burst, with no added latency. A
      lone frame, and one too large for a container, leaves bare. The
      watchdog (default
      {!Ba_proto.Watchdog.default_config}) starts observing
      immediately; its check interval is in engine ticks, hence real
      [check_interval * tick_us] microseconds under a driver. *)

  val on_frame : t -> Codec.frame -> unit
  (** Feed one decoded arrival. Keeps nothing of the frame, so it may be
      a {!Driver}'s borrowed scratch frame. *)

  val pump : t -> unit
  (** Start (or kick) the transfer; call once after wiring up. *)

  val finished : t -> bool
  (** Supplier exhausted and every payload acknowledged. *)

  val pulled : t -> int
  val acked : t -> int
  (** Monotone acknowledged-progress watermark (what the watchdog
      observes). *)

  val pull_wall : t -> int -> float
  (** Wall-clock time ([Unix.gettimeofday], in seconds) payload [i] was
      first pulled from the workload, to the microsecond, the clock's
      own resolution: the client stores whole microseconds. Negative if
      not yet pulled. The client keeps these times only while the
      sender holds [i] unacknowledged (about a window of them): the time
      is valid from the pull until the sender sees [i] acknowledged — in
      particular when the server delivers [i] — and reads negative once
      a later pull has reused its slot. *)

  val data_frames : t -> int
  (** Data frames the sender emitted, before the shim and the packer —
      frames, not datagrams. *)

  val retransmissions : t -> int

  val resync_rounds : t -> int
  (** REQ and FIN handshake frames the sender sent, retries included,
      counted as they leave it. *)

  val watchdog_resyncs : t -> int
  (** Watchdog-initiated sender resyncs (Release re-syncs included). *)

  val quarantines : t -> int
  val watchdog_state : t -> Ba_proto.Watchdog.state
  val shim_counters : t -> Ba_util.Counters.t
end

module Pair : sig
  (** Both halves in one process, on one of two networks: real loopback
      UDP, each half with its own engine, socket and driver — the
      apparatus of the loopback smoke tests — or a virtual network on
      one engine, deterministic — the N1 table's and the recorded
      defects'. Per-payload latency is measured end to end, client pull
      to server delivery, into a {!Ba_util.Qsketch} (milliseconds). *)

  type network =
    | Loopback of { tick_us : int; deadline_s : float }
        (** Loopback sockets under {!Driver}s: one engine tick lasts
            [tick_us] real microseconds, so an [rto] of 250 ticks
            retransmits after 50 ms of real silence at [tick_us = 200].
            The run returns by [deadline_s] of wall time. *)
    | Virtual
        (** Both halves on one engine. Each datagram is copied onto a
            {!Ba_channel.Link} with a constant one-tick delay, one link
            per direction, and each arrival is parsed by
            {!Codec.decode_into} as a driver's socket drain parses it;
            the packer, codec, shim, ack hold and watchdog run
            unchanged. Nothing waits on the wall clock: [msgs_per_s]
            and [latency_ms] count a tick as {!virtual_tick_us}. The
            run stops at completion or at tick 2,000,000. *)

  val virtual_tick_us : int
  (** 200: the microseconds a tick stands for on the [Virtual]
      network, as at the loopback drivers' usual [tick_us]. *)

  type outcome = {
    completed : bool;  (** both halves finished before the deadline *)
    digest : int;
    digest_expected : int;
    msgs_per_s : float;
    latency_ms : Ba_util.Qsketch.t;
    counters : Ba_util.Counters.t;
        (** the pair's counts: the server's [Delivered] (its
            {!Server.position}), [Duplicates], [Misordered] and
            [Corrupted]; the client's [Retransmissions]; [Datagrams_tx],
            datagrams put on the network in both directions (not frames:
            a client container of k data frames counts once), and
            [Data_datagrams], the client's share of them; and
            [Acks_sent], the server's {!Server.acks_sent} *)
    client_shim : Ba_util.Counters.t;  (** the client's {!Shim.counters} *)
    server_shim : Ba_util.Counters.t;  (** the server's *)
  }

  val run :
    protocol:Ba_proto.Protocol.t ->
    config:Ba_proto.Proto_config.t ->
    messages:int ->
    payload_size:int ->
    wseed:int ->
    ?plan:Ba_channel.Fault_plan.t ->
    ?impair_seed:int ->
    network:network ->
    ?on_setup:(unit -> unit) ->
    unit ->
    outcome
  (** Impairment applies to both directions (independent fault streams
      split from [impair_seed]). Sockets are closed on exit. [on_setup]
      runs once both halves are built, before the first pump: the point
      at which to measure per-connection state. *)
end
