(** Chaos campaign: sweep seeds and adversarial fault plans through the
    experiment harness and check the two properties the paper promises.

    - {b Safety}: whatever the channel does — bursty loss, duplication,
      corruption, outages, reordering — a robust protocol must never
      deliver a duplicate, out of order, or a corrupted payload.
    - {b Recovery}: once the scheduled faults quiesce, the transfer must
      still complete (under outages this leans on the sender's
      {!Blockack.Rtt_estimator.backoff} to stop hammering a dark link).

    Each (seed, fault class) pair fully determines the run, so the
    campaign can report the minimal failing seed together with the fault
    schedule needed to replay it. *)

type fault_class =
  | Bursty_loss  (** Gilbert-Elliott burst losses on both links *)
  | Duplication  (** probabilistic duplication (the set-channel's blind spot) *)
  | Corruption  (** payload/header mangling, caught only by checksums *)
  | Outage  (** scheduled dark windows on both links *)
  | Reorder  (** heavy delay spikes, so copies overtake each other *)
  | Crash  (** endpoint crash–restart: volatile state wiped mid-transfer *)
  | Overload
      (** resource exhaustion: a squeezed receiver reassembly budget plus
          a congested bounded queue on the shared data path *)
  | Storm
      (** compound incident: the crash schedule, the overload squeeze
          {e and} a bursty channel, composed in one run — the three
          tolerance mechanisms (epoch resync, backpressure, timer
          backoff) exercised together, where their interactions hide.
          Each ingredient is the same pure function of the seed as in
          its dedicated class, so one replay key reproduces the whole
          composition. *)

val all_classes : fault_class list

val channel_classes : fault_class list
(** The channel-fault subset of {!all_classes} — everything except
    [Crash], [Overload] and [Storm], which fault a process or its
    resources rather than (only) a link. *)

val class_name : fault_class -> string
val class_of_name : string -> fault_class option
(** Lower-case names: ["bursty-loss"], ["duplication"], ["corruption"],
    ["outage"], ["reorder"], ["crash"], ["overload"], ["storm"]. *)

val plans_for : fault_class -> seed:int -> Ba_channel.Fault_plan.t * Ba_channel.Fault_plan.t
(** [(data_plan, ack_plan)] for one run. The plans vary with [seed]
    (outage timing, duplicate fan-out) so a sweep explores more than one
    schedule, and both are pure data: print them with
    {!Ba_channel.Fault_plan.pp} to get the replay key. [Crash] leaves
    both links clean (its schedule is {!crash_plan_for}). *)

val crash_plan_for : seed:int -> Ba_proto.Crash_plan.t
(** The [Crash] class's process-fault schedule for one run: the victim
    (sender, receiver, or both staggered), the crash tick and the
    downtime all rotate with [seed]. Pure data: a failure report prints
    it with {!Ba_proto.Crash_plan.pp}, and the replay key [(fault, seed)]
    regenerates it. *)

type squeeze = {
  rx_slots : int;  (** receiver reassembly budget, in out-of-order slots *)
  policy : Ba_proto.Proto_config.drop_policy;
  service_time : int;  (** data-link bottleneck service time, ticks/frame *)
  queue_capacity : int;  (** data-link bottleneck queue depth *)
}
(** The resource-squeeze component of the [Overload] and [Storm]
    classes, as pure data — the third plan kind next to
    {!Ba_channel.Fault_plan} and {!Ba_proto.Crash_plan}. *)

val squeeze_for : seed:int -> squeeze
(** The seed-derived squeeze: an [rx_slots] budget of 2–4, drop policy
    alternating with the seed between [Drop_new] and [Drop_furthest],
    and a [(10, 4–7)] data-link bottleneck. *)

val apply_squeeze :
  squeeze -> Ba_proto.Proto_config.t -> Ba_proto.Proto_config.t * (int * int)
(** Install a squeeze on a base config: the rewritten config plus the
    [(service_time, queue_capacity)] bottleneck for the data link. *)

type incident = {
  fault : fault_class;
  seed : int;
  data_plan : Ba_channel.Fault_plan.t;
  ack_plan : Ba_channel.Fault_plan.t;
  crash_plan : Ba_proto.Crash_plan.t;  (** [none] unless the class crashes an endpoint *)
  squeeze : squeeze option;  (** [Some] for [Overload] and [Storm] *)
}
(** Everything one (fault class, seed) pair lands on a run, as pure
    data: the replay key is [(fault, seed)]. *)

val incident : fault_class -> seed:int -> incident
(** The incident of one run. The only code that knows which
    ingredients a class composes: {!plans_for} on the links for every
    class, {!crash_plan_for} for [Crash] and [Storm], {!squeeze_for}
    for [Overload] and [Storm]. *)

val runnable : Ba_proto.Protocol.t -> incident -> bool
(** [false] when the incident carries a crash schedule and the protocol
    lacks the crash-restart lifecycle. *)

type failure = { incident : incident; result : Ba_proto.Harness.result }

type recovery = {
  restarts : int;  (** endpoint restarts across the class's runs *)
  resync_rounds : int;  (** REQ/POS/FIN handshake frames, retries included *)
  mean_resync_ticks : float;  (** mean restart-to-recovery time *)
  max_resync_ticks : float;
  retx_bytes : int;  (** payload bytes retransmitted across the runs *)
}
(** Aggregated recovery cost for a fault class (crash campaigns only —
    channel classes report no restarts). *)

type class_report = {
  fault : fault_class;
  runs : int;
  unsafe : int;  (** runs that violated safety *)
  incomplete : int;  (** runs that missed the recovery deadline *)
  both : int;
      (** runs counted in {e both} [unsafe] and [incomplete]: the two
          tallies are symptom counts, not a partition, so the number of
          distinct failing runs is [unsafe + incomplete - both]. *)
  first_failure : failure option;  (** minimal failing seed, if any *)
  supported : bool;
      (** [false] when the class was skipped because the protocol lacks
          the required lifecycle (crash class on a non-crash-tolerant
          protocol); such rows have [runs = 0]. *)
  recovery : recovery option;
      (** recovery cost over the class's runs; [None] when nothing
          restarted (every channel-fault class). *)
}

type report = { protocol : string; classes : class_report list }

val safe : Ba_proto.Harness.result -> bool
(** Zero duplicates, misordering and corruption delivered. (Weaker than
    {!Ba_proto.Harness.correct}: an unfinished run can still be safe.) *)

val run_one :
  ?messages:int ->
  ?config:Ba_proto.Proto_config.t ->
  Ba_proto.Protocol.t ->
  fault_class ->
  seed:int ->
  failure option
(** One (protocol, fault class, seed) run; [Some f] when safety or
    recovery was violated. *)

val run_campaign :
  ?messages:int ->
  ?config:Ba_proto.Proto_config.t ->
  ?seeds:int list ->
  ?classes:fault_class list ->
  ?jobs:int ->
  Ba_proto.Protocol.t ->
  report
(** Sweep [seeds] (default [1..50]) across [classes] (default
    {!all_classes}) with [messages] payloads per run (default 60). The
    default config is {!robust_config}.

    The (fault, seed) cells are independent simulations, so they run on
    a {!Ba_parallel.Pool} of [jobs] domains (default 1, i.e.
    sequential). Results are collected in input order, so the report —
    including every counter and the minimal failing seed — is identical
    at any job count. *)

val verdict : class_report -> string
(** ["ok"], or the nonzero symptom counts, e.g. ["unsafe:3 stuck:1"]. *)

val clean : report -> bool
(** No unsafe and no incomplete run anywhere in the report. *)

val robust_config : Ba_proto.Proto_config.t
(** The configuration the robust protocols are audited under: window 16,
    wire modulus 32 ([2w], the paper's bound), adaptive RTO so outages
    exercise timer backoff. *)

val naive_restart_config : Ba_proto.Proto_config.t
(** {!robust_config} with [resync_epochs = false]: restarts come back
    zeroed with no incarnation bump and no resync handshake. The crash
    campaign's negative control — it demonstrably delivers duplicates. *)

val gbn_config : Ba_proto.Proto_config.t
(** The textbook go-back-N configuration: same window but the classic
    [w + 1] modulus, whose decode ambiguity the reorder campaign
    exposes. *)

val pp_failure : Format.formatter -> failure -> unit
(** Replay key: seed, class, both plans, and the run's result line. *)

val pp_report : Format.formatter -> report -> unit
