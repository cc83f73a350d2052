(** Deterministic discrete-event simulation engine.

    Model time is an integer tick count (one tick reads naturally as one
    microsecond, but nothing depends on the unit). Events scheduled for
    the same tick fire in scheduling order, so a run is fully determined
    by the seed and the program.

    The queue is one binary heap of int triples [(time, stamp, key)].
    One-shot events ({!schedule}, {!schedule_fn}) are pushed and popped;
    a {!slot} owns at most one entry and re-keys or removes it in place,
    so cancelling or re-arming leaves nothing dead in the queue. *)

type t

val create : ?seed:int -> unit -> t
(** [create ~seed ()] starts a simulation at tick 0 with a generator
    seeded by [seed] (default 1). *)

val now : t -> int
(** Current tick. *)

val rng : t -> Ba_util.Rng.t
(** The engine's random stream. Components wanting independent streams
    should [Ba_util.Rng.split] it at setup time. *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** [schedule t ~delay f] arranges for [f ()] to run at [now t + delay].
    Fire-and-forget: a one-shot event cannot be cancelled. Requires
    [delay >= 0]. *)

val schedule_at : t -> at:int -> (unit -> unit) -> unit
(** Absolute-time variant. Requires [at >= now t]. *)

type handler [@@immediate]
(** A callback registered once with {!handler}, for high-rate one-shot
    events. *)

val handler : t -> (int -> unit) -> handler
(** [handler t f] registers [f] for {!schedule_fn}. Register once per
    callback (the link registers its two at creation), not per event. *)

val no_handler : handler
(** A value {!handler} never returns: the placeholder of a record field
    that holds a handler whose callback needs the record itself, set
    right after the record is built. Passing it to {!schedule_fn} is a
    bug. *)

val schedule_fn : t -> delay:int -> handler -> int -> unit
(** [schedule_fn t ~delay h arg] runs [h]'s callback on [arg] at
    [now t + delay]: fire-and-forget, not cancellable, and
    allocation-free — the path for the link's delivery events.
    Requires [delay >= 0] and [arg >= 0]. *)

val pending_events : t -> int
(** Number of not-yet-fired events, armed slots included. O(1). *)

type slot [@@immediate]
(** A reusable event slot: the way to run a recurring (re-armable) or
    cancellable callback. The callback is registered once at
    {!slot_create}; arming, re-arming and cancelling after that move the
    slot's one queue entry in place and allocate nothing. A slot lives
    as long as its engine. Every protocol timer is one: the endpoints
    arm theirs on each (re)transmission. *)

val slot_create : t -> (unit -> unit) -> slot
(** [slot_create t f] makes a disarmed slot that runs [f ()] when it
    fires. A slot fires at most once per arming and is disarmed before
    [f] runs, so [f] may re-arm it. *)

val no_slot : slot
(** A value {!slot_create} never returns: the placeholder of a record
    field that holds a slot whose callback needs the record itself, set
    right after the record is built. Passing it to any other function
    is a bug. *)

val slot_arm : t -> slot -> delay:int -> unit
(** Arm (or re-arm, replacing the previous arming) to fire [delay]
    ticks from now: {!slot_arm_keyed} with a fresh {!take_stamp}.
    Requires [delay >= 0]. *)

val take_stamp : t -> int
(** Reserve the insertion stamp the next scheduled event would take:
    the same-tick tie-break that makes events of one tick fire in
    scheduling order. The stamp is consumed whether or not an event is
    ever armed with it, so later events keep the order they would have
    had. *)

val slot_arm_keyed : t -> slot -> at:int -> stamp:int -> unit
(** Arm (or re-arm) to fire at tick [at] with a stamp from
    {!take_stamp}, in place of a fresh one. The slot then fires exactly
    where an event scheduled for [at] at the moment [stamp] was taken
    would have, before or after every other event of that tick. This
    lets one slot stand for many logical timers: keep each timer's
    [(at, stamp)] key and arm the slot at the earliest. Raises
    [Invalid_argument] when [at < now t] or [stamp] was never taken. *)

val slot_cancel : t -> slot -> unit
(** Disarm; no-op when not armed. *)

val slot_armed : t -> slot -> bool

val next_due : t -> int
(** Tick of the earliest pending event, without firing it ([max_int]
    when the queue is empty). What a wall-clock driver needs to compute
    a wait's timeout: sleep until the next virtual deadline, no longer.
    Allocates nothing. *)

val run : ?until:int -> ?max_events:int -> t -> unit
(** Fire events until the queue drains, the next event lies beyond
    [until], or [max_events] have fired. Events at tick [until] fire;
    later ones stay pending, and the clock then advances to [until]
    (unless the run was stopped or hit [max_events]). *)

val run_until : t -> int -> unit
(** [run_until t tick] is [run ~until:tick t], without the option a
    call with [~until] builds: a wall-clock driver advances its engine
    this way several times per loop turn. *)

val stop : t -> unit
(** Make the current [run] return after the event in progress. *)

val retire : t -> unit
(** Give the engine's int columns (heap and slot positions) back to
    {!Ba_util.Column_pool}, for the next engine to take. Call it once
    nothing will read or schedule on the engine again: afterwards the
    engine is empty, {!now} still answers, and scheduling, arming a slot
    or creating a slot or handler raises [Invalid_argument] instead of
    writing into a column another engine may now own. A second retire
    does nothing. *)
