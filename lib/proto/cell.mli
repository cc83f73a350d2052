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
    invalid config, a negative [start_at], a [stop_at] not after its
    [start_at], or a non-positive budget. *)

type t

val create :
  engine_seed:int ->
  wseed:(int -> int) ->
  data_loss:float ->
  ack_loss:float ->
  data_delay:Ba_channel.Dist.t ->
  ack_delay:Ba_channel.Dist.t ->
  ?data_bottleneck:int * int ->
  ?ack_bottleneck:int * int ->
  ?lease:int * int ->
  ?data_plan:Ba_channel.Fault_plan.t ->
  ?ack_plan:Ba_channel.Fault_plan.t ->
  ?budget:int ->
  ?watchdog:Watchdog.config ->
  ?sketch:bool ->
  spec list ->
  t
(** Builds the engine (seeded [engine_seed]), the data and ack links,
    their plans, and every admitted flow's endpoints; schedules
    departures, the watchdog and the memory sampler. No traffic flows
    until {!start}. Flow [i]'s payloads come from a {!Workload} seeded
    [wseed i].

    [data_bottleneck]/[ack_bottleneck] are [(service_time,
    queue_capacity)]. They sit on the links exactly, unless
    [lease = (barrier, total_flows)] is given: then each becomes a
    capacity lease at this cell's flow-count share of the rate (at least
    one frame per [barrier] ticks) and of the queue (at least 4 slots),
    and the links are uncontended.

    [budget] admits [specs] under a memory budget as {!Fabric.run}
    describes: unclamped, else under one uniform window clamp, else a
    prefix at clamp 1; the clamp caps each sender's window and rewrites
    each receiver's [rx_budget]. [watchdog]
    observes every started, running flow each [check_interval] ticks:
    [Resync] crash-restarts its sender (counted like any crash), and
    [Quarantine] gates its frames off the links until release. With a
    budget or a watchdog, model memory is sampled. [sketch] also folds
    every latency, in delivery order, into a {!Ba_util.Qsketch}. *)

val start : t -> unit
(** Pump every flow's sender, in spec order; surge flows are pumped at
    their [start_at]. *)

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

val refused : t -> int
val clamp : t -> int option

val deadline : t -> int
(** The default horizon: [max 1 messages · max rto · 20 + 10⁶] over
    the admitted flows. *)

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

type tally = {
  messages : int;  (** offered by the admitted flows *)
  delivered : int;
  duplicates : int;
  misordered : int;
  corrupted : int;
  completed_flows : int;
  departed : int;  (** flows closed at [stop_at] while mid-transfer *)
  data_sent : int;
  acks_sent : int;
  retransmissions : int;
  pressure_drops : int;
  quarantine_events : int;
  watchdog_resyncs : int;
  quarantined : int;  (** flows still quarantined *)
  all_ended : bool;  (** every flow completed or departed *)
}

val tally : t -> tally
(** The cell's totals over all its flows. *)

val flow_result : t -> int -> Flow.result
(** Flow [i]'s verdict, judged over its own tenancy: [ticks] runs from
    its [start_at] to its completion, departure or the current tick.
    Latencies are exact, read in message order, which is delivery order
    for a flow that delivers in order. The link fields other than the
    send counts are 0: a shared link cannot attribute them to one flow.
    Call once per flow, after the run. *)

(** {2 Capacity leases} *)

type 'a lease

val data_lease : t -> Wire.data lease option
val ack_lease : t -> Wire.ack lease option

val reconcile_leases : 'a lease array -> bool
(** Barrier-time fold over one direction's leases: idle leases cede
    their unused frame credits to backlogged ones, pro rata to backlog.
    Order-independent. [true] when spare capacity was re-leased. *)

val lease_drops : 'a lease -> int
(** Frames tail-dropped at this full lease queue. *)
