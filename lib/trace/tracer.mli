(** Wire-level event tracing with ASCII time-sequence rendering.

    {!protocol} hooks a tracer into the transmit and deliver paths of a
    simulated connection, and {!render} draws what happened as the
    classic two-column protocol diagram:

    {v
      tick | sender                        | receiver
      -----+-------------------------------+--------------------------
         0 | DATA 0 ->                     |
        50 |                               | -> DATA 0
        50 |                               | <- ACK (0,0)
       100 | ACK (0,0) <-                  |
    v} *)

type side = Sender | Receiver

type event = { time : int; side : side; label : string }

type t

val create : ?capacity:int -> unit -> t
(** [capacity] bounds retained events; default 10_000. Past it the
    oldest half is dropped and counted in {!dropped}. *)

val record : t -> time:int -> side:side -> string -> unit

val events : t -> event list
(** In recording order. *)

val dropped : t -> int
(** Events dropped so far to stay within the capacity. *)

val clear : t -> unit

val protocol : t -> Ba_proto.Protocol.t -> Ba_proto.Protocol.t
(** [protocol t p] behaves exactly as [p] and records, at the engine's
    tick, each data frame the sender transmits ([DATA n ->]) and each
    acknowledgment the receiver transmits ([<- ACK (lo,hi)]), each
    arrival at the receiver ([-> DATA n]) and at the sender
    ([ACK (lo,hi) <-]), and each delivery ([deliver "payload"]). Records
    are made before the frame is handed on. Run it through
    {!Ba_proto.Harness.run} to trace one transfer. *)

val render : ?from_time:int -> ?until_time:int -> t -> string
(** The two-column diagram, optionally restricted to a time window. When
    events were dropped, one line after the header says how many. *)
