(** The simulation cell: an engine, one data link, one ack link and
    the endpoints of every flow they carry, with the per-flow
    accounting that turns deliveries into verdicts.

    Every simulated run is built from cells. {!Harness.run} is one flow
    in one cell; {!Fabric.run} is admission control plus one cell holding
    every flow; {!Shard.run} is many cells advanced in lockstep epochs.
    So there is one delivery check, one completion test, one departure
    schedule, one watchdog loop, one memory sampler and one crash/resync
    path.

    Flows share the cell's links. A frame travels with its flow index as
    the link's tag ({!Ba_channel.Link.send_tagged}), so tagging allocates
    nothing and faults mangle frames, never the demultiplexing. Per-flow
    state is flat arrays, not per-flow records.

    Flows are grouped by protocol name ([P.name]): each group keeps its
    flows' endpoints in two arrays, packed with the protocol module of
    the group's first flow, and every later flow of that name runs on
    that module. So two protocol values that share a name must be one
    protocol; a wrapper that keeps the name (an instrumented copy, say)
    must be the only value of that name in the cell.

    The accounting is sized to the flight, not to the transfer. Each
    flow's pulled-but-undelivered payloads and their pull ticks sit in a
    ring of [min messages (2 · window)] slots, which covers every
    registry protocol's flight band, Section VI's included. A pull that
    laps an undelivered one (a wider band, or a broken protocol that
    skips a message) parks the older pull in a cell-wide spill table
    ({!spilled}), so verdicts stay exact for any protocol. A message is
    delivered iff it was pulled and its pull has left both; a pull tick
    also carries whether its message was sent, which is how a
    retransmitted copy is told from a first one. Latencies are recorded
    at first delivery.

    A cell is a pure function of its arguments: links split the engine's
    random stream in creation order (data, then ack), endpoints are built
    in spec order (sender, then receiver), and same-tick events fire in
    scheduling order. *)

type spec = {
  protocol : Protocol.t;
  config : Proto_config.t;
  messages : int;  (** payloads this flow offers *)
  payload_size : int;
  start_at : int;
      (** tick at which this flow starts offering traffic (0 = from the
          beginning). Late starters model a traffic surge hitting a
          running fabric; they still participate in admission control
          up front, so the memory guarantee covers the surge peak. *)
  stop_at : int option;
      (** tick at which this flow departs, finished or not ([None] = it
          stays until it completes). At [stop_at] the flow's frames are
          gated off the links, no event reaches it any more and its
          buffered bytes stop counting toward the cell's memory — the
          reservation is reclaimed, and admission control (which reasons
          about peak {e concurrent} cost over the [start_at, stop_at)
          intervals) can hand it to a later arrival. *)
}

val spec :
  ?config:Proto_config.t ->
  ?messages:int ->
  ?payload_size:int ->
  ?start_at:int ->
  ?stop_at:int ->
  Protocol.t ->
  spec
(** Defaults: [Proto_config.default], 100 messages, 32-byte payloads,
    [start_at = 0], no [stop_at]. *)

val validate : who:string -> ?memory_budget:int -> spec list -> unit
(** Raises [Invalid_argument] (prefixed [who]) on an empty list, an
    invalid config, a negative [messages], [payload_size] or
    [start_at], a [stop_at] not after its [start_at], or a non-positive
    budget. *)

val flow_cost : spec -> clamp:int -> int
(** Admission's charge for one flow: [2 · min window clamp ·
    payload_size] bytes, a full effective window of payloads in the
    sender's retransmit buffer plus as many again in the receiver's
    reassembly window. *)

val check_budget : budget:int -> spec list -> unit
(** Raises [Invalid_argument] when [budget] admits no flow of [specs]:
    the first spec does not fit even at window 1. Admission raises the
    same, so a caller can reject such a budget before the run. *)

type admission = private {
  admitted : spec list;  (** the flows a cell runs, in spec order *)
  refused : int;
  clamp : int option;  (** the uniform window clamp, if any *)
  budgeted : bool;  (** a budget was given *)
  horizon : int;
      (** the default horizon of a cell built from the plan: [max 1
          messages · max rto · 20 + 10⁶] over the admitted flows *)
}
(** A cell's admission plan. Under a memory budget: everyone unclamped
    if their peak concurrent cost fits; else everyone under the largest
    uniform window clamp that fits; else clamp 1 and the longest spec
    prefix that fits, the rest refused. The peak concurrent cost is the
    largest total {!flow_cost} of the flows whose [\[start_at,
    stop_at)] intervals hold some flow's [start_at], so a departing
    flow's reservation is reusable by a later arrival. *)

val admission : ?budget:int -> spec list -> admission
(** Plans [specs] under [budget] (everyone, unclamped, without one) in
    O(n log² n): one sweep over the interval ends finds a peak, and the
    admitted prefix is bisected, since the peak never falls as a prefix
    grows. Raises [Invalid_argument] when [budget] admits no flow. *)

type t

val create :
  engine_seed:int ->
  wseed:(int -> int) ->
  data_loss:float ->
  ack_loss:float ->
  data_delay:Ba_channel.Dist.t ->
  ack_delay:Ba_channel.Dist.t ->
  ?data_bottleneck:int * int ->
  ?data_plan:Ba_channel.Fault_plan.t ->
  ?ack_plan:Ba_channel.Fault_plan.t ->
  ?watchdog:Watchdog.config ->
  ?sketch:bool ->
  admission ->
  t
(** Builds the engine (seeded [engine_seed]), the data and ack links,
    their fault plans, and the endpoints of every flow the admission
    admits; schedules departures, the watchdog and the memory sampler.
    No traffic flows until {!start}. Flow [i]'s payloads come from a
    {!Workload} seeded [wseed i].

    [data_bottleneck] is [(service_time, queue_capacity)], both
    positive, else [Invalid_argument]: the data link's
    {!Ba_channel.Link} bottleneck queue, the one bottleneck FIFO every
    runner uses. {!Shard} sizes it to a cell's share of a shared link
    and re-times it at its barriers ({!Ba_channel.Link.set_service}).
    The ack link never has a bottleneck: as in the paper, the reverse
    channel loses and reorders but is not congested.

    The admission's clamp caps each sender's window and each
    receiver's [rx_budget]. [watchdog]
    observes every started, running flow each [check_interval] ticks:
    [Resync] crash-restarts its sender (counted like any crash), and
    [Quarantine] gates its frames off the links until release. With a
    budgeted admission or a watchdog, model memory is sampled.
    [sketch] folds every latency, in delivery order, into one
    {!Ba_util.Qsketch} for the cell instead of keeping each flow's
    samples, so {!flow_result} then reports no latencies. *)

val start : t -> unit
(** Pump every flow's sender, in spec order; surge flows are pumped at
    their [start_at]. Raises [Invalid_argument] on a retired cell. *)

val retire : t -> unit
(** Give the cell's int columns, and its engine's and links' (see
    {!Ba_sim.Engine.retire} and {!Ba_channel.Link.retire}), back to
    {!Ba_util.Column_pool}, so the next cell of the same shape takes
    them instead of allocating. A runner calls it once it has read
    everything it needs: results, counters, link counters, the sketch.
    Afterwards {!start}, scheduling on {!engine} and sending on either
    link raise [Invalid_argument], and so does reading a flow's
    counters; {!flows} and {!spilled} still answer. A second retire
    does nothing. *)

val schedule_crashes : t -> int -> Crash_plan.t -> unit
(** [schedule_crashes c i plan] schedules each event's crash of flow
    [i]'s endpoint at its tick and the matching restart [down_for] ticks
    later, in plan order. Crashes and restarts are counted in the flow's
    result; a restart opens a recovery interval that the flow's next new
    delivery closes. A flow whose protocol has no crash lifecycle is
    left alone, as campaign runners do. *)

val engine : t -> Ba_sim.Engine.t
val data_link : t -> Wire.data Ba_channel.Link.t
val ack_link : t -> Wire.ack Ba_channel.Link.t

val flows : t -> int
(** Admitted flows. *)

val clamp : t -> int option

val deadline : t -> int
(** The [horizon] of the cell's admission plan. *)

val remaining : t -> int
(** Flows neither completed nor departed. The engine stops when this
    reaches 0. *)

val done_at : t -> int
(** Tick at which the last flow ended; -1 while one is running. *)

val sample_mem : t -> unit
(** Record the running flows' buffered payload bytes in {!mem_peak}. *)

val mem_peak : t -> int
val sketch : t -> Ba_util.Qsketch.t option
val departed : t -> int -> bool

val spilled : t -> int
(** Pulls moved to the spill table so far: each one lapped its flow's
    flight ring before its message's first delivery. 0 for every
    registry protocol at its default configuration. *)

val counters : t -> Ba_util.Counters.t
(** The cell's totals over all its flows, built when called:
    [Messages], [Delivered], [Duplicates], [Misordered], [Corrupted],
    [Completed_flows], [Departed] (closed at [stop_at] mid-transfer),
    [Refused], [Clamped_cells] (1 when admission clamped this cell),
    [Data_sent], [Acks_sent], [Retransmissions], [Pressure_drops],
    [Quarantine_events],
    [Watchdog_resyncs] and [Quarantined] (flows still quarantined).
    Every flow has ended when [Completed_flows + Departed = flows]. *)

val flow_result : t -> int -> Flow.result
(** Flow [i]'s verdict, judged over its own tenancy: [ticks] runs from
    its [start_at] to its completion, departure or the current tick.
    Latencies are exact, one per first delivery, in delivery order (none
    in a cell built with [sketch]). The link fields other than the
    send counts are 0: a shared link cannot attribute them to one flow.
    Call once per flow, after the run. *)
