(** Sharded fabric: 100k–1M concurrent flows in bounded memory.

    {!Fabric} holds every flow in one {!Cell}: exact, but O(flows)
    events interleave in one event loop. The shard runner partitions
    the flows over many cells advanced in lockstep:

    {ul
    {- {b Cells.} Flows are partitioned by spec order into fixed-size
       cells (the [cell] parameter). Each is a {!Cell.t}, as in the fabric
       and the harness, with its engine seeded
       [seed + 104729·(index+1)] and flow [i]'s workload
       [seed + 7919·(i+1)], so a cell is a deterministic sub-simulation.
       A one-cell run without capacity equals {!Fabric.run} at that
       engine seed, counter for counter.}
    {- {b Capacity leases.} The shared-router bottleneck
       ([capacity = (service_time, queue_capacity)]) becomes a per-cell
       {e lease}: each cell serves its frame FIFO at its flow-count
       share of the link rate. At every epoch barrier the leases are
       reconciled — idle cells' unused frame credits are re-leased to
       backlogged cells in proportion to backlog — a deterministic fold
       in cell order.}
    {- {b Epoch barriers.} All live cells advance in lockstep,
       [Engine.run ~until] one [barrier]-tick epoch at a time. Within
       an epoch cells are independent, so epochs fan out over a
       {!Ba_parallel.Pool}; [shards] controls how many contiguous cell
       groups become pool tasks.}
    {- {b Flat accounting.} Per-flow state is the cell's flat arrays
       plus one mergeable {!Ba_util.Qsketch} per cell for latency. The
       only per-flow heap objects are the protocol endpoints themselves
       and four one-word wiring closures (data tx, ack tx, deliver,
       payload pull).}}

    {b Determinism.} The model is fixed by [(specs, seed, cell,
    barrier, capacity, …)]; [shards] and [jobs] only schedule cells
    onto domains. Results are collected in cell order and lease
    reconciliation is an order-independent integer fold, so the result
    is byte-identical for any [shards] and any [jobs] — the same
    guarantee class as the campaign pool, and QCheck-pinned in
    [test_shard.ml]. *)

type result = {
  flows : int;  (** admitted flows across all cells *)
  cells : int;
  messages : int;  (** payloads offered by admitted flows *)
  delivered : int;
  duplicates : int;
  misordered : int;
  corrupted : int;
  completed_flows : int;
  departed : int;  (** flows closed by [stop_at] while mid-transfer *)
  refused : int;  (** flows refused by cell-local admission *)
  clamped_cells : int;  (** cells where admission imposed a window clamp *)
  data_sent : int;
  acks_sent : int;
  retransmissions : int;
  pressure_drops : int;
  lease_drops : int;  (** frames tail-dropped at a full cell lease queue *)
  lease_rebalances : int;  (** barriers at which idle capacity was re-leased *)
  quarantine_events : int;
  watchdog_resyncs : int;
  quarantined : int;
  mem_peak_bytes : int;
      (** peak sampled model bytes (sum of per-cell peaks; 0 when
          neither budget nor watchdog is set) *)
  ticks : int;  (** last completion tick across cells (or the horizon) *)
  epochs : int;  (** barrier epochs executed *)
  completed : bool;  (** every admitted flow finished or departed on schedule *)
  aggregate_goodput : float;  (** delivered payloads per 1000 ticks *)
  latency : Ba_util.Qsketch.t;  (** merged delivery-latency sketch *)
  state_bytes : int;
      (** live-heap delta attributable to the built cells ([measure_mem]
          runs a major GC before/after construction; 0 otherwise). Not
          part of {!summary}: heap layout is not a simulation output. *)
}

val run :
  ?seed:int ->
  ?jobs:int ->
  ?shards:int ->
  ?cell:int ->
  ?barrier:int ->
  ?data_loss:float ->
  ?ack_loss:float ->
  ?data_delay:Ba_channel.Dist.t ->
  ?ack_delay:Ba_channel.Dist.t ->
  ?capacity:int * int ->
  ?ack_capacity:int * int ->
  ?plans_for:(cell_seed:int -> Ba_channel.Fault_plan.t * Ba_channel.Fault_plan.t) ->
  ?deadline:int ->
  ?memory_budget:int ->
  ?watchdog:Watchdog.config ->
  ?measure_mem:bool ->
  Cell.spec list ->
  result
(** [run specs] drives every flow to completion, departure or the
    deadline. Defaults: seed 42, [jobs] {!Ba_parallel.Pool.default_jobs},
    [shards = jobs], [cell = 1024] flows per cell, [barrier = 1000]
    ticks, no loss, delay [Uniform (40, 60)] both ways, no capacity
    (uncontended links), [measure_mem = false].

    [capacity]/[ack_capacity] are the shared-link bottleneck
    [(service_time, queue_capacity)], realised as per-cell leases (see
    above): a cell's base lease is its flow-count share of the rate and
    at least one frame per epoch; its queue share at least 4 slots.

    [memory_budget] splits by flow-count share into per-cell budgets and
    each cell runs the fabric's admission locally — same
    unclamped/clamp/refuse ladder, shard-local state only. [watchdog]
    arms a per-flow liveness machine per cell (observation loop on the
    cell's own engine): stalls resync via the same counted crash+restart
    as any crash plan, repeat offenders are gated off the cell's links.

    [plans_for ~cell_seed] attaches scheduled fault plans (data, ack) to
    each cell's links — the storm hook; [cell_seed] is derived from
    [seed] and the cell index, so plans are replayable per cell.

    Raises [Invalid_argument] on empty [specs], non-positive [cell],
    [barrier] or [shards], invalid spec intervals, or a budget that
    admits no flow in some cell. *)

val summary : result -> string
(** Deterministic multi-line digest of everything in [result] except
    [state_bytes] — what the CLI prints and what the determinism
    properties compare byte-for-byte. *)
