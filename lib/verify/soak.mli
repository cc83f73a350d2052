(** The soak round: a churning fabric under a memory budget and an armed
    watchdog, with a chaos {!Chaos.incident} landed on it, plus the fold
    that streams rounds into constant-space aggregates and one verdict.

    [ba_net --soak], experiment S3 and the churn tests all run this
    round; only their flow populations and their printing differ. *)

type round = {
  result : Ba_proto.Fabric.result;
  budget : int;  (** the fabric memory budget the round ran under *)
  safe : bool;  (** every admitted flow passed {!Chaos.safe} *)
  base_goodput : float list;  (** per-flow goodput of the base cohort, in flow order *)
  returner_goodput : float list;
      (** per-flow goodput of the returning churn cohort, in flow order *)
}

val round :
  ?data_loss:float ->
  ?ack_loss:float ->
  ?delay:Ba_channel.Dist.t ->
  ?capacity:int * int ->
  ?budget:int ->
  ?crashes:(int * Ba_proto.Crash_plan.t) list ->
  ?fault:Chaos.fault_class ->
  base:int ->
  churn_from:int ->
  seed:int ->
  Ba_proto.Fabric.spec list ->
  round
(** [round ~base ~churn_from ~seed specs] runs one {!Ba_proto.Fabric.run}
    at [seed] with the watchdog checking every 500 ticks and a memory
    budget of [budget] bytes (default 3/4 of
    {!Ba_proto.Fabric.lifetime_cost}: admission must reclaim departed
    reservations or clamp, yet every flow still fits).

    [fault] lands {!Chaos.incident}[ fault ~seed]: its channel plans on
    the shared links, its squeeze on every spec's config and on the data
    bottleneck (replacing [capacity]), and its crash plan on flow 0.
    [crashes] schedules further [(flow, plan)] crashes first, skipping
    flows admission refused. [data_loss], [ack_loss] and [delay] (both
    directions) default to {!Ba_proto.Fabric.run}'s.

    The base cohort is the first [base] flows. The returning cohort is
    every second flow from [churn_from + 1] on: {!Ba_proto.Fabric.churn}
    emits leaver/returner pairs. *)

val goodput_floor : float
(** 0.5: the returning cohort's mean goodput must reach this fraction of
    the base cohort's for a soak to pass. *)

type report = {
  budget : int;  (** the largest round budget *)
  peak : int;  (** peak buffered bytes over all rounds *)
  over_budget : int;  (** rounds whose peak exceeded their budget *)
  counters : Ba_util.Counters.t;
      (** every round's {!Ba_proto.Fabric.result} counters, summed:
          [Quarantine_events] and [Watchdog_resyncs] are the soak's *)
  worst_ticks : int;  (** the longest completed round, 0 if none completed *)
  unsafe_rounds : int;
  stuck_rounds : int;
  ratio : float option;
      (** mean returner goodput over mean base goodput across all rounds;
          [None] without both cohorts or with no base goodput *)
  sketch : Ba_util.Qsketch.t;  (** every delivery latency of every round *)
  nodes_at_check : int;  (** sketch nodes after round 10 (or the last round) *)
  pass : bool;
      (** no unsafe, stuck or over-budget round, the ratio (if any) at
          least {!goodput_floor}, and the sketch's node count flat since
          the check (within one node) *)
}

val fold : on_round:(int -> round -> unit) -> jobs:int -> rounds:int -> (int -> round) -> report
(** [fold ~on_round ~jobs ~rounds run] runs rounds [0 .. rounds-1] on
    the shared {!Ba_parallel.Pool} of [jobs] domains in chunks of
    [4 · jobs], folds each into the report in round order and then
    hands it to [on_round]. Only the aggregates outlive a chunk, so
    memory is O(1) in [rounds], and the report is identical at any
    [jobs]. *)
