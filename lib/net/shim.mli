(** Fault injection at the socket boundary.

    The simulator injects faults inside {!Ba_channel.Link}; on a real
    socket there is no link object, so the shim sits between the
    protocol's encode step and [sendto] and applies the same composable
    {!Ba_channel.Fault_plan} — loss (bursty or not), duplication,
    corruption, delay spikes, scheduled outages — to outgoing
    datagrams. Chaos campaigns and the storm class therefore exercise
    real I/O with the very plans they use against the simulated link,
    and the fault schedule is replayable: decisions are drawn from a
    generator seeded at {!create}, one {!Ba_channel.Fault_plan.decide}
    step per submission in send order. The endpoints submit one frame
    at a time, before any packing into containers, so a verdict hits
    one frame — as on the simulated link — and a container carries
    whatever survived.

    Delay verdicts are virtual-time delays: the copy is re-submitted by
    an engine timer [extra] ticks later, which on a wall-clock driver
    means real milliseconds — and therefore real reordering. Outage
    windows are checked against the engine clock, so a plan's
    [out\[a,b)] maps to a wall-clock blackout.

    The shim also carries the quarantine {!gate}: while closed (the
    watchdog's [Quarantine] action), every send — including delayed
    copies coming due — is discarded and counted, which is what "gate
    the flow off the link" means when the link is a kernel socket. *)

type t

val create :
  Ba_sim.Engine.t ->
  ?plan:Ba_channel.Fault_plan.t ->
  seed:int ->
  transmit:(Bytes.t -> int -> unit) ->
  unit ->
  t
(** [transmit buf len] performs the real send; the shim owns [buf]'s
    contents only for the duration of the call. Without [plan] every
    datagram passes straight through (the gate still applies). *)

val send : t -> Bytes.t -> int -> unit
(** Submit one outgoing datagram. The bytes are copied if (and only if)
    a verdict needs them later or mangled, so the caller may reuse its
    buffer immediately. *)

val gate : t -> bool -> unit
(** [gate t true] closes the gate (quarantine); [false] reopens it. *)

val counters : t -> Ba_util.Counters.t
(** A block of the shim's counts so far: [Offered] (datagrams the
    protocol submitted), [Passed] (handed to the transmit function,
    copies included), [Lost] (loss verdicts), [Duplicated] (extra
    copies), [Mangled] (sent with a flipped byte), [Delayed] (deferred
    by a delay-spike verdict), [Outage_drops] and [Gated] (discarded
    while quarantined). *)
