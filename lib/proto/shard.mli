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
       A one-cell run equals {!Fabric.run} at that engine seed, counter
       for counter but the lease keys; with [capacity = (svc, q + 1)]
       and a barrier that is a multiple of [svc] it equals a fabric
       with [data_bottleneck = (svc, q)], and its [Lease_drops] is the
       fabric's data-link [Queue_dropped].}
    {- {b Capacity leases.} The shared-router bottleneck on the data
       direction ([capacity = (service_time, queue_capacity)]) becomes a
       per-cell {e lease}: the cell's own data link's
       {!Ba_channel.Link} bottleneck queue, serving at the cell's
       flow-count share of the link rate. At every epoch barrier the
       leases are reconciled — idle cells' unused frame credits are
       re-leased to backlogged cells in proportion to backlog — a
       deterministic fold in cell order, which re-times each queue
       ({!Ba_channel.Link.set_service}) from its next service on. As on
       the fabric's link, a frame's loss and fault-plan verdicts are
       drawn when it is offered, before it queues.}
    {- {b Epoch barriers.} A batch of cells advances in lockstep,
       [Engine.run ~until] one [barrier]-tick epoch at a time, until
       every flow in it has ended or the horizon. With [capacity] the
       leases tie every cell to every other, so the batch is every
       cell, and each epoch fans out over a {!Ba_parallel.Pool}: the
       live cells are dealt to [jobs] contiguous groups, one pool task
       each. Without [capacity] no cell waits on another, so each cell
       is a batch of its own: it is built, run through the same epochs
       and reduced to its part, then dropped. Cells go to the pool in
       contiguous runs, so at most one cell per worker is live and the
       run's memory does not grow with its flow count.}
    {- {b Flat accounting.} Per-flow state is the cell's flat arrays
       plus one mergeable {!Ba_util.Qsketch} per cell for latency. The
       only per-flow heap objects are the protocol endpoints themselves
       and four one-word wiring closures (data tx, ack tx, deliver,
       payload pull). Once a cell has run, the run keeps only its part:
       its counter block, its sketch and four ints.}}

    {b Determinism.} The model is fixed by [(specs, seed, cell,
    barrier, capacity, …)]; [jobs] only schedules cells onto domains.
    The default horizon is planned from every cell's admission before
    any cell runs. The result is a fold of the cells' parts in cell
    order (counters summed, sketches merged left to right, the latest
    end tick and epoch count), and lease reconciliation is an
    order-independent integer fold, so the result is byte-identical for
    any [jobs], and to a run that holds every cell at once — the same
    guarantee class as the campaign pool, and pinned in
    [test_shard.ml]. *)

type result = {
  flows : int;  (** admitted flows across all cells *)
  cells : int;
  counters : Ba_util.Counters.t;
      (** the cells' {!Cell.counters} summed, plus [Lease_rebalances]
          (barriers at which idle capacity was re-leased). [Messages]
          counts the payloads admitted flows offer; [Lease_drops] the
          frames tail-dropped at full cell lease queues, the sum of the
          cells' data-link [Queue_dropped]. *)
  mem_peak_bytes : int;
      (** peak sampled model bytes (sum of per-cell peaks; 0 when
          neither budget nor watchdog is set) *)
  ticks : int;  (** last completion tick across cells (or the horizon) *)
  epochs : int;  (** barrier epochs executed *)
  completed : bool;  (** every admitted flow finished or departed on schedule *)
  aggregate_goodput : float;  (** delivered payloads per 1000 ticks *)
  latency : Ba_util.Qsketch.t;  (** merged delivery-latency sketch *)
  state_bytes : int;
      (** with [measure_mem], the bytes each cell reaches beyond its
          specs right after {!Cell.start}, summed over cells
          ([Obj.reachable_words], so no collection runs; the few
          statically allocated closures and constants every cell
          reaches count once per cell); 0 otherwise. Not part of
          {!summary}: heap layout is not a simulation output. *)
  unsafe_cell : int option;
      (** the lowest-index cell in which a flow delivered a duplicate,
          out-of-order or corrupted payload; [None] when {!safe}. With
          the run's seed it is a replay key: the cell is a deterministic
          sub-simulation (see {b Cells} above). Not part of {!summary}. *)
  delivered : int;
  duplicates : int;
  misordered : int;
  corrupted : int;
  data_sent : int;
  acks_sent : int;
  retransmissions : int;
  lease_drops : int;
      (** The eight fields above repeat [counters]' entries of the same
          names: the benchmark workloads in [bench/e2e] read them by
          field name. Read the block. *)
}

val run :
  ?seed:int ->
  ?jobs:int ->
  ?cell:int ->
  ?barrier:int ->
  ?data_loss:float ->
  ?ack_loss:float ->
  ?data_delay:Ba_channel.Dist.t ->
  ?ack_delay:Ba_channel.Dist.t ->
  ?capacity:int * int ->
  ?plans_for:(cell_seed:int -> Ba_channel.Fault_plan.t * Ba_channel.Fault_plan.t) ->
  ?deadline:int ->
  ?memory_budget:int ->
  ?watchdog:Watchdog.config ->
  ?measure_mem:bool ->
  Cell.spec list ->
  result
(** [run specs] drives every flow to completion, departure or the
    deadline: [deadline] when given, else the latest [horizon] of the
    cells' admission plans ({!Cell.admission}), each cell's planned
    once. Defaults: seed 42, [jobs] {!Ba_parallel.Pool.default_jobs},
    [cell = 1024] flows per cell, [barrier = 1000] ticks, no loss, delay
    [Uniform (40, 60)] both ways, no capacity (uncontended links),
    [measure_mem = false].

    [capacity] is the shared data link's bottleneck [(service_time,
    queue_capacity)], realised as per-cell leases (see above): a cell's
    base lease is its flow-count share of the rate and at least one
    frame per epoch; its queue share at least 4 slots, counting the
    frame in service, so its data link's queue holds one fewer waiting
    frame. Both members must be positive. Acknowledgments are never leased: the ack links
    lose and reorder but are not congested.

    [memory_budget] splits by flow-count share into per-cell budgets and
    each cell runs the fabric's admission locally — same
    unclamped/clamp/refuse ladder, shard-local state only. [watchdog]
    arms a per-flow liveness machine per cell (observation loop on the
    cell's own engine): stalls resync via the same counted crash+restart
    as any crash plan, repeat offenders are gated off the cell's links.

    [plans_for ~cell_seed] attaches scheduled fault plans (data, ack) to
    each cell's links — the storm hook; it is called once per cell, as
    the cell is built, so without [capacity] and with [jobs > 1] it
    runs on pool workers. [cell_seed] is derived from [seed] and the
    cell index, so plans are replayable per cell.

    Raises [Invalid_argument] on empty [specs], non-positive [cell],
    [barrier] or [jobs], a [capacity] with a non-positive member,
    invalid spec intervals, or a budget that admits no flow in some
    cell; all of these before any cell runs. *)

val safe : result -> bool
(** No flow delivered a duplicate, out-of-order or corrupted payload:
    {!Harness.correct}'s safety half, over every flow. *)

val summary : result -> string
(** Deterministic multi-line digest of everything in [result] except
    [state_bytes] and [unsafe_cell] — what the CLI prints and what the
    determinism properties compare byte-for-byte. *)
