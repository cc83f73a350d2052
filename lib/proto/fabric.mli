(** N-connection simulation fabric: many flows — any mix of protocols
    — multiplexed over one shared data link and one shared ack link.

    This is the scaling counterpart of {!Harness}: where the harness
    gives a single connection two private links, the fabric makes every
    connection contend for the same capacity-limited channel (pass
    [data_bottleneck] to model the shared router queue), which is what
    contention, fairness and aggregate-throughput questions need.

    A fabric run is admission control plus one {!Cell} holding every
    admitted flow. Unlike {!Shard}, whose cells each get a lease on the
    shared rate, the fabric's bottleneck is the exact {!Ba_channel.Link}
    queue: with one cell there is nothing to lease between, and a queue
    that serves frames in arrival order is the model itself rather than
    an approximation of it.

    The fabric is also where overload is handled: a [memory_budget]
    turns on admission control with graceful degradation (refuse new
    flows, clamp existing windows — never OOM), and a [watchdog] config
    arms a per-flow liveness machine that resyncs stalled flows through
    the crash-restart handshake and quarantines repeat offenders off the
    shared links (see {!Watchdog}).

    A run is a pure function of [seed]: the cell's engine is seeded
    [seed], flow [i]'s workload [seed + 7919·(i+1)].

    The cell groups flows by protocol name ({!Cell}): specs whose
    protocols share a name all run on the first such spec's module, so
    a wrapped protocol that keeps its name belongs in every spec of that
    name, as one value. *)

type spec = Cell.spec = {
  protocol : Protocol.t;
  config : Proto_config.t;
  messages : int;  (** payloads this flow offers *)
  payload_size : int;
  start_at : int;  (** tick at which this flow starts offering traffic *)
  stop_at : int option;  (** tick at which this flow departs, finished or not *)
}
(** See {!Cell.spec}. *)

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

type link_totals = { sent : int; queue_dropped : int }
(** A link block's [Offered] and [Queue_dropped] under the field names
    the benchmark workloads in [bench/e2e] read. Read the blocks. *)

type result = {
  ticks : int;  (** simulated time until every flow finished (or the deadline) *)
  completed : bool;
      (** every admitted flow reached a normal end of life: delivered
          and acknowledged everything, or departed on its [stop_at]
          schedule *)
  flows : Flow.result list;
      (** per-flow verdicts for the {e admitted} flows, in spec order.
          The record is the same one {!Harness.run} returns, so
          chaos/safety checks written against harness output apply to
          each entry unchanged. A finished flow's [ticks] (hence
          goodput, latency) covers its own lifetime; a departed flow's
          its tenancy; an unfinished one is measured over the whole
          run. A departed flow's counters freeze at departure — no
          event can reach it afterwards. *)
  aggregate_goodput : float;  (** total delivered payloads per 1000 ticks *)
  fairness : float;  (** Jain's index over per-flow goodput *)
  counters : Ba_util.Counters.t;
      (** the cell's {!Cell.counters}: the flows' totals, plus
          [Refused] (flows refused outright by admission control),
          [Departed] (flows closed by their [stop_at] schedule while
          still mid-transfer; one that finished first counts as
          completed) and the watchdog's [Quarantine_events],
          [Watchdog_resyncs] and [Quarantined] (flows still quarantined
          when the run ended). The admitted flows are [flows]. *)
  data_link : Ba_util.Counters.t;  (** the shared data link's {!Ba_channel.Link.counters} *)
  ack_link : Ba_util.Counters.t;  (** the shared ack link's *)
  clamped_window : int option;
      (** the uniform effective-window clamp admission imposed, if any *)
  mem_peak_bytes : int;
      (** peak observed payload bytes buffered across all endpoints
          (sampled; 0 when neither budget nor watchdog was set) *)
  data_stats : link_totals;  (** [data_link]'s, as {!link_totals} *)
  ack_stats : link_totals;  (** [ack_link]'s *)
}

val jain : float list -> float
(** Jain's fairness index [(Σx)² / (n·Σx²)]: 1.0 is a perfectly even
    allocation, [1/n] is one flow hoarding everything. 1.0 on degenerate
    input (empty list, or all zeros). *)

val run :
  ?seed:int ->
  ?data_loss:float ->
  ?ack_loss:float ->
  ?data_delay:Ba_channel.Dist.t ->
  ?ack_delay:Ba_channel.Dist.t ->
  ?data_bottleneck:int * int ->
  ?data_plan:Ba_channel.Fault_plan.t ->
  ?ack_plan:Ba_channel.Fault_plan.t ->
  ?deadline:int ->
  ?memory_budget:int ->
  ?watchdog:Watchdog.config ->
  ?on_flows:(Ba_sim.Engine.t -> Cell.t -> unit) ->
  spec list ->
  result
(** [run specs] drives every flow to completion (or to the deadline,
    which defaults to an allowance scaled by the {e aggregate} workload).
    Defaults mirror {!Harness.run}: seed 42, no loss, delay
    [Uniform (40, 60)] both ways.

    [memory_budget] (bytes) bounds the worst-case payload memory the
    whole fabric can pin (each flow is charged
    [2 · effective_window · payload_size]: retransmit buffer plus
    reassembly window). The bound is on peak {e concurrent} cost: flows
    whose [start_at, stop_at) intervals never overlap share one
    reservation, so a departure makes room for a later arrival that a
    lifetime-sum accounting would have refused. Degradation is graceful
    and in preference order: admit everyone unclamped if the budget
    allows; else admit everyone under the largest uniform window clamp
    that fits (enforced both by clamping the sender's window and by
    rewriting the receiver's [rx_budget]); else clamp to 1 and admit
    the longest spec prefix that fits, refusing the rest. Raises
    [Invalid_argument] when not even one clamped flow fits.

    [data_plan]/[ack_plan] attach a scheduled {!Ba_channel.Fault_plan}
    to the shared links — the fabric-scale analogue of the harness's
    plan arguments, and what lets a chaos storm hit a churning fabric.
    Each plan instantiates against a fresh split of its link's random
    stream, so plan-free runs are byte-identical to before.

    [watchdog] arms a per-flow {!Watchdog}: every [check_interval]
    ticks each started, unfinished flow is checked for delivery
    progress; stalled flows are resynced via crash+restart of their
    sender (the REQ/POS/FIN handshake), and repeat offenders are
    quarantined — their frames are gated off the shared links until
    probation ends, so the other [n−1] flows keep their throughput.

    [on_flows] is called once after every flow is created and before any
    traffic is pumped, with the cell (flow [i] is spec [i] among the
    admitted) — the hook for scheduling process faults against a
    {e single} flow ({!Cell.schedule_crashes}) to check that one
    endpoint's crash cannot stall or corrupt the other [n-1] flows
    sharing the links. The cell lives only as long as the run: [run]
    retires it ({!Cell.retire}) before it returns, so a caller that
    keeps the cell or its engine may read {!Cell.flows}, {!Cell.spilled}
    and the links' counters afterwards, but scheduling on the engine,
    sending on a link or reading a flow's counters raises
    [Invalid_argument].

    [data_bottleneck] is the [(service_time, queue_capacity)] pair of
    the shared data link — the contended resource. Without it the link
    has infinite capacity and flows only share the loss/delay process.
    The ack link is never congested: as in the paper, acknowledgments
    ride a reverse channel that loses and reorders but has no queue.

    Raises [Invalid_argument] on an empty spec list, a negative
    [start_at], a [stop_at] not after its [start_at], or a
    [data_bottleneck] with a non-positive member. *)

val lifetime_cost : spec list -> int
(** The sum of every spec's unclamped admission charge
    ({!Cell.flow_cost}), as if all of them were open at once. A
    [memory_budget] below it makes admission lean on departures
    reclaiming reservations, or clamp. *)

val churn :
  ?base:int ->
  ?churners:int ->
  ?messages:int ->
  ?payload_size:int ->
  ?config:Proto_config.t ->
  seed:int ->
  Protocol.t ->
  spec list
(** [churn ~seed protocol] is a seed-derived churning flow population:
    [base] (default 2; 0 when the caller brings its own long-lived
    flows) baseline flows spanning the whole horizon —
    the pre/post-churn goodput baseline — plus, per churner (default
    2), a {e departing} flow (arrives within the first 400 ticks,
    departs 2000–3500 ticks later with work left, so its reservation is
    reclaimed live) and a {e returning} flow that arrives 600–1400
    ticks after that departure and runs to completion. The schedule is
    a pure function of [seed]; all flows offer [messages] (default 40)
    payloads of [payload_size] bytes, departing flows 4x that so they
    always outlast their [stop_at]. *)
