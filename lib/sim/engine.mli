(** Deterministic discrete-event simulation engine.

    Model time is an integer tick count (one tick reads naturally as one
    microsecond, but nothing depends on the unit). Events scheduled for
    the same tick fire in scheduling order, so a run is fully determined
    by the seed and the program. *)

type t

type handle
(** A scheduled event; can be cancelled until it fires. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] starts a simulation at tick 0 with a generator
    seeded by [seed] (default 1). *)

val now : t -> int
(** Current tick. *)

val rng : t -> Ba_util.Rng.t
(** The engine's random stream. Components wanting independent streams
    should [Ba_util.Rng.split] it at setup time. *)

val schedule : t -> delay:int -> (unit -> unit) -> handle
(** [schedule t ~delay f] arranges for [f ()] to run at [now t + delay].
    Requires [delay >= 0]. *)

val schedule_at : t -> at:int -> (unit -> unit) -> handle
(** Absolute-time variant. Requires [at >= now t]. *)

val cancel : handle -> unit
(** Cancel a pending event; no-op if it already fired or was cancelled. *)

val is_pending : handle -> bool

val pending_events : t -> int
(** Number of not-yet-fired, not-cancelled events. O(1): the engine
    maintains the count incrementally across schedule/cancel/fire. *)

val queue_length : t -> int
(** Physical size of the event heap, counting lazily-cancelled entries
    that have not been compacted away yet. Always [>= pending_events].
    Exposed so tests can observe dead-event compaction; not meaningful
    for simulation logic. *)

type slot
(** A reusable event slot: the allocation-free way to run a recurring
    (re-armable) callback. The callback closure is built once at
    {!slot_create}; every {!slot_arm} after that reuses it, costing no
    heap allocation — unlike {!schedule}, which builds a fresh closure
    and handle per call. This is what {!Timer} arms on every
    (re)transmission. *)

val slot_create : t -> (unit -> unit) -> slot
(** [slot_create t f] makes a disarmed slot that runs [f ()] when it
    fires. A slot fires at most once per arming and is disarmed before
    [f] runs, so [f] may re-arm it. *)

val slot_arm : slot -> delay:int -> unit
(** Arm (or re-arm, cancelling the previous arming) to fire [delay]
    ticks from now: {!slot_arm_keyed} with a fresh {!take_stamp}.
    Requires [delay >= 0]. Allocation-free. *)

val take_stamp : t -> int
(** Reserve the insertion stamp the next scheduled event would take:
    the same-tick tie-break that makes events of one tick fire in
    scheduling order. The stamp is consumed whether or not an event is
    ever armed with it, so later events keep the order they would have
    had. *)

val slot_arm_keyed : slot -> at:int -> stamp:int -> unit
(** Arm (or re-arm) to fire at tick [at] with a stamp from
    {!take_stamp}, in place of a fresh one. The slot then fires exactly
    where an event scheduled for [at] at the moment [stamp] was taken
    would have, before or after every other event of that tick. This
    lets one slot stand for many logical timers: keep each timer's
    [(at, stamp)] key and arm the slot at the earliest. Raises
    [Invalid_argument] when [at < now t] or [stamp] was never taken.
    Allocation-free. *)

val slot_cancel : slot -> unit
(** Disarm; no-op when not armed. *)

val slot_armed : slot -> bool

val slot_expiry : slot -> int
(** Absolute tick of the current arming; meaningless when disarmed. *)

val schedule_fn : t -> delay:int -> (int -> unit) -> int -> unit
(** [schedule_fn t ~delay f arg] runs [f arg] at [now t + delay] —
    fire-and-forget, not cancellable. Passing a persistent [f] and an
    integer [arg] makes this the allocation-free path for high-rate
    one-shot events (the link's delivery events). *)

val next_due : t -> int option
(** Tick of the earliest pending event, without firing it ([None] when
    the queue is empty). What a wall-clock driver needs to compute a
    [select] timeout: sleep until the next virtual deadline, no longer. *)

val step : t -> bool
(** Fire the next event. Returns [false] when the queue is empty. *)

val drain_batch : t -> int
(** Fire every event of the earliest pending tick — including events
    that callbacks schedule for that same tick — in one pass, and
    return how many fired (0 when the queue is empty). Firing order is
    identical to repeated {!step}; this just hoists the head
    inspection out of the per-event loop. Respects {!stop}. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** Fire events until the queue drains, [until] ticks is reached
    (events at [until] and beyond stay pending, with the clock advanced
    to [until]), or [max_events] have fired. *)

val stop : t -> unit
(** Make the current [run] return after the event in progress. *)

exception Stopped
