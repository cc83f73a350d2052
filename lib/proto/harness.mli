(** Experiment harness: one sender, one receiver, two lossy links.

    [run] is one flow in one {!Cell} — engine seeded [seed], workload
    seeded [seed] — driving [messages] payloads through a protocol, and
    reports both performance (ticks, goodput, overhead) and correctness
    (duplicates, misordering, corruption) — the latter must be zero for a
    correct protocol and is deliberately *not* zero for the broken
    baselines the paper warns about. Because its two links are private,
    the harness also attributes their drop, reorder and fault counters
    to the flow. For many connections over a shared link, see {!Fabric};
    [result] is the same record ({!Flow.result}), so every check written
    against harness output also reads fabric output. *)

include module type of struct
  include Flow
end
(** [type result = Flow.result], re-exported with its fields: the
    verdict record {!Fabric.run} also returns, one per flow. *)

val run :
  Protocol.t ->
  ?seed:int ->
  ?messages:int ->
  ?payload_size:int ->
  ?config:Proto_config.t ->
  ?data_loss:float ->
  ?ack_loss:float ->
  ?data_delay:Ba_channel.Dist.t ->
  ?ack_delay:Ba_channel.Dist.t ->
  ?data_bottleneck:int * int ->
  ?data_plan:Ba_channel.Fault_plan.t ->
  ?ack_plan:Ba_channel.Fault_plan.t ->
  ?crash_plan:Crash_plan.t ->
  ?deadline:int ->
  ?on_setup:(Cell.t -> unit) ->
  unit ->
  result
(** Defaults: [seed = 42], [messages = 1000], [payload_size = 32],
    [config = Proto_config.default], no loss, delay [Uniform (40, 60)]
    both ways, deadline scaled to the workload. The run stops early as
    soon as the transfer completes. The flow is checked as
    {!Cell.validate} checks a fabric's, so a negative [messages] or
    [payload_size] raises [Invalid_argument].

    [data_plan] / [ack_plan] install composable {!Ba_channel.Fault_plan}
    adversaries on the respective links (bursty loss, duplication,
    corruption, outages); the plans' randomness is derived from the
    link's seeded stream, so a run is a pure function of [seed]. Both
    links mangle messages with {!Wire.corrupt_data} /
    {!Wire.corrupt_ack} when a plan asks for a [Corrupt] verdict, so
    robust endpoints can detect and discard them by checksum.

    [crash_plan] schedules endpoint process faults: each event crashes
    the named endpoint at its tick and restarts it [down_for] ticks
    later (see {!Crash_plan}). Raises [Invalid_argument] when the plan
    is not empty and the protocol has no {!Protocol.lifecycle}.

    [on_setup] sees the cell once its flow is built, before any traffic
    is pumped, so a caller can install scripted faults through
    {!Cell.engine}, {!Cell.data_link} and {!Cell.ack_link} (e.g. "drop
    exactly the acknowledgment covering block k"). The cell lives only
    as long as the run: [run] retires it ({!Cell.retire}) before it
    returns, handing its columns to the next run, so a caller that
    keeps it may read {!Cell.flows}, {!Cell.spilled} and the links'
    counters afterwards, but scheduling on its engine, sending on a
    link or reading the flow's counters raises [Invalid_argument]. *)

val pp_result : Format.formatter -> result -> unit
(** One line. Recovery metrics, [pressure-drops=] and [queue-drops=]
    (tail drops at the data bottleneck) are appended only when nonzero,
    so a run without crashes, a receiver budget or a bottleneck prints
    the same line as before they existed. *)

val correct : result -> bool
(** Completed with no duplicates, misordering or corruption. *)
