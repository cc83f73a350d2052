(** One connection: a protocol's sender/receiver pair plus the
    bookkeeping that turns its deliveries into a verdict.

    A flow owns everything per-connection that {!Harness.run} used to
    wire inline — the seeded {!Workload}, payload validation, duplicate /
    misordering / corruption counting, per-payload latency, and
    completion detection — but it does {e not} own links: it sends
    through the [data_tx] / [ack_tx] callbacks it was given and is fed
    arrivals through {!on_data} / {!on_ack}. That inversion is what lets
    {!Fabric} multiplex many flows (of different protocols) over one
    shared pair of links while {!Harness} keeps its private two. *)

type result = {
  protocol : string;
  completed : bool;  (** all payloads delivered and acknowledged *)
  ticks : int;  (** simulated time consumed (caller-supplied horizon) *)
  messages : int;  (** payloads offered *)
  delivered : int;  (** distinct payloads delivered *)
  duplicates : int;  (** deliveries of an already-delivered payload *)
  misordered : int;  (** deliveries that broke application order *)
  corrupted : int;  (** deliveries of an unparseable payload *)
  data_sent : int;
  data_dropped : int;
  data_queue_dropped : int;  (** tail drops at the data-link bottleneck *)
  data_reordered : int;  (** wire-level overtakings on the data link *)
  data_duplicated : int;  (** extra copies injected by a fault plan *)
  data_corrupted : int;  (** wire-level corruptions injected on the data link *)
  data_outage_drops : int;  (** data frames lost to scheduled outages *)
  acks_sent : int;
  acks_dropped : int;
  acks_corrupted : int;  (** wire-level corruptions injected on the ack link *)
  ack_outage_drops : int;  (** acks lost to scheduled outages *)
  retransmissions : int;
  goodput : float;  (** delivered payloads per 1000 ticks *)
  latency : Ba_util.Stats.summary option;
      (** per-payload delivery latency (ticks from entering the sender's
          window to in-order delivery); [None] when nothing was delivered *)
  latencies : float list;
      (** the raw per-payload latency samples behind [latency], in
          delivery order (for histograms) *)
  ack_overhead : float;  (** ack bytes per delivered payload byte *)
  efficiency : float;  (** delivered / data_sent: 1.0 means no waste *)
  crashes : int;  (** endpoint crashes injected into this flow *)
  restarts : int;  (** endpoint restarts *)
  resync_rounds : int;  (** handshake frames (REQ/POS/FIN) sent, retries included *)
  resync_ticks : Ba_util.Stats.summary option;
      (** per-restart recovery time: restart tick to the next in-order
          delivery (or completion); [None] when nothing restarted *)
  retx_bytes : int;  (** bytes of retransmitted payload copies on the wire *)
  pressure_drops : int;
      (** in-window frames the receiver refused for buffer-full under an
          [rx_budget]; behaviorally channel losses (never acknowledged) *)
}

type t

val create :
  Ba_sim.Engine.t ->
  Protocol.t ->
  ?id:int ->
  ?workload_seed:int ->
  seed:int ->
  messages:int ->
  payload_size:int ->
  config:Proto_config.t ->
  data_tx:(Wire.data -> unit) ->
  ack_tx:(Wire.ack -> unit) ->
  ?on_complete:(unit -> unit) ->
  unit ->
  t
(** Builds the sender, then the receiver, on [engine] (in that order —
    creation order fixes event ordering, hence determinism). Payloads
    come from a {!Workload} seeded by [workload_seed] (default [seed];
    fabrics give each flow its own so streams are distinguishable).
    [on_complete] fires exactly once, when the last payload has been
    delivered {e and} the sender has seen every acknowledgment. *)

val on_data : t -> Wire.data -> unit
(** Feed a data arrival to the receiver half. *)

val on_ack : t -> Wire.ack -> unit
(** Feed an acknowledgment arrival to the sender half. *)

val pump : t -> unit
(** Ask the sender to (re)fill its window; called once at start. *)

val id : t -> int

val protocol_name : t -> string

val messages : t -> int

val delivered : t -> int

val retransmissions : t -> int

val outstanding : t -> int

val is_complete : t -> bool

val completed_at : t -> int option
(** Tick at which the flow completed, if it has. *)

val mem_bytes : t -> int
(** Payload bytes currently buffered by both endpoints (retransmit
    queue + reassembly window) — what the fabric's accountant charges
    this flow. Protocols without accounting report 0. *)

val clamp_window : t -> int -> unit
(** Backpressure: cap the sender's effective window (no-op for
    protocols without a clamp path). *)

val pressure_drops : t -> int
(** In-window frames the receiver refused for buffer-full so far. *)

(** {2 Crash–restart}

    Fault the flow's {e processes} rather than its channel. The calls
    delegate to the protocol's lifecycle
    ({!Protocol.S.sender_crash} etc.) and raise [Invalid_argument] when
    {!crash_tolerant} is [false]. Crashing an already-down endpoint (or
    restarting a live one) is a no-op at the protocol layer but still
    counted here, so overlapping plans stay visible in the result. *)

val crash_tolerant : t -> bool
val crash_sender : t -> unit
val restart_sender : t -> unit
val crash_receiver : t -> unit
val restart_receiver : t -> unit

val schedule_crashes : Ba_sim.Engine.t -> t -> Crash_plan.t -> unit
(** For each plan event, schedule the crash at its tick and the matching
    restart [down_for] ticks later, in plan order. *)

val result : t -> ?data_stats:Ba_channel.Link.stats -> ?ack_stats:Ba_channel.Link.stats -> ticks:int -> unit -> result
(** Snapshot the flow's verdict. [data_stats] / [ack_stats] attribute
    link-level counters (drops, reorderings, injected faults) when the
    flow ran over private links; without them the link fields fall back
    to the flow's own send counts and zeros, which is all a shared link
    can attribute to one flow. *)
