(** Wall-clock driver: one {!Ba_sim.Engine}, one UDP socket, one
    [select] loop.

    The protocol endpoints are pure engine programs — their timers,
    handshakes and watchdogs are all virtual-time events. The driver is
    the adapter that makes those events happen in real time: it keeps
    the engine clock pinned to the wall clock (one tick = [tick_us]
    microseconds), computes each [select] timeout from
    {!Ba_sim.Engine.next_due}, and feeds arriving datagrams through the
    {!Codec} into the endpoint's callback. A retransmission timer armed
    for [rto] ticks therefore fires after [rto * tick_us] real
    microseconds of real silence — which is exactly how a killed peer
    is detected.

    Robustness contract, per the channel model we must survive
    (bounded-capacity, omitting, duplicating, non-FIFO):
    {ul
    {- receive: undecodable datagrams, and malformed frames inside
       a container, are counted and dropped, never raised; [EINTR]/[EAGAIN] retry; [ECONNREFUSED] (a dead peer's
       ICMP bounce surfacing on the error queue) is swallowed — peer
       death is the watchdog's business, not an exception;}
    {- send: [EINTR]/[EAGAIN]/[ENOBUFS] retry with exponential backoff
       (bounded; the datagram is dropped after the last attempt —
       it is UDP, the protocol's timers already assume loss);
       [ECONNREFUSED]/[EHOSTUNREACH]/[ENETUNREACH] count as drops;}
    {- the loop always returns by [deadline_s], whatever the sockets
       do — a hung peer cannot wedge the caller.}}

    Several drivers (each with its own engine and socket) can run under
    one {!run} call — that is how the in-process loopback pair used by
    the benchmark multiplexes a server and a client endpoint while
    keeping them as isolated as two processes. *)

type t

val create :
  engine:Ba_sim.Engine.t ->
  sock:Unix.file_descr ->
  tick_us:int ->
  on_frame:(Codec.frame -> Unix.sockaddr -> unit) ->
  unit ->
  t
(** Takes ownership of [sock] (sets it non-blocking). [tick_us] is the
    real duration of one engine tick; the engine must be at tick 0.
    [on_frame] is called once per decodable arriving frame, with its
    datagram's source address: a {!Codec.Batch} container is unrolled
    into one call per well-formed inner frame, in wire order, so
    [on_frame] never sees a container. The frame is borrowed for the
    duration of the call: every driver on a domain decodes into the
    same two records ({!Codec.decode_into}), so [on_frame] must not keep
    the frame or its record past its return, and must copy any field it
    needs later. The payload string is fresh and belongs to [on_frame].
    The endpoints keep at most the payload, as they do when a simulated
    link takes each frame back after delivery. *)

val loopback_socket : unit -> Unix.file_descr
(** A UDP socket bound to a free port on 127.0.0.1, for a {!create}
    on the loopback interface. *)

val now_ticks : t -> int
(** Wall-clock time since {!create}, in ticks. *)

val sync : t -> unit
(** Advance the engine to the current wall tick, firing every event due
    at or before it — including one armed with delay 0 during the
    current tick (an [on_frame] callback's), so it runs without waiting
    for the next wall tick. *)

val send_to : t -> Unix.sockaddr -> Bytes.t -> int -> bool
(** Transmit one datagram with the bounded retry policy above. [false]
    when it was ultimately dropped (unreachable peer, full buffers);
    the caller treats that as channel loss. *)

val send_errors : t -> int
(** Datagrams dropped by {!send_to} after exhausting retries. *)

val decode_errors : t -> int
(** Arrivals rejected by {!Codec.decode_into}, plus the malformed inner
    frames of the containers it accepted. *)

val rx_datagrams : t -> int
val tx_datagrams : t -> int

val run : ?deadline_s:float -> stop:(unit -> bool) -> t list -> bool
(** Drive the drivers until [stop ()] holds (checked after every batch
    of work) — [true] — or [deadline_s] of wall time elapses — [false].
    Default deadline 60 s. Never blocks longer than the earliest engine
    deadline across the drivers (or 50 ms, whichever is sooner, so an
    empty queue cannot sleep through the deadline). *)
