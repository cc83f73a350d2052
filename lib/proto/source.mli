(** Payload source with one-slot lookahead and a sliding outbox.

    Senders pull payloads from a [unit -> string] supplier. A supplier
    raising {!Protocol.Exhausted} means "nothing available now", not
    necessarily "never again" — an application may queue more data later
    (as {!Blockack.Duplex} does). This wrapper re-polls on demand and
    buffers at most one payload so that checking for exhaustion never
    loses data.

    Every payload handed out gets the next position, from 0. The source
    holds positions [[base, issued)] — the outbox — and nothing else:
    which of them to send, resend or replay is the sender's to track,
    and it reads them with {!get}. {!release} drops an acknowledged
    prefix, so a sender that releases as it is acknowledged holds about
    a window.

    The outbox stands in for the application's durable send buffer, like
    a TCP send buffer: it holds the unacknowledged suffix, which is what
    lets a crashed sender — whose volatile retransmission state is gone
    — resume from the position the receiver announces. A sender that
    never releases (the blind-restart negative control, which replays
    from 0) keeps everything it issued. *)

type t

val create : (unit -> string) -> t

val next : t -> bool
(** Take the buffered payload if any, otherwise poll the supplier;
    [false] when it raised {!Protocol.Exhausted}. A payload taken is
    held at the next position, {!issued} before the call, and read with
    {!get}. Allocates nothing beyond growing the outbox. *)

val exhausted : t -> bool
(** [true] when nothing is available right now: the lookahead slot is
    empty and a fresh poll raised {!Protocol.Exhausted}. A payload
    obtained by the poll is kept for the next {!next}. *)

val issued : t -> int
(** Total payloads ever handed out, one position each. Positions are
    the resync handshake's currency: the receiver's POS names the next
    position it expects. *)

val base : t -> int
(** The lowest position still held: everything below it was released. *)

val get : t -> int -> string
(** [get t pos] is the payload at position [pos]. Raises
    [Invalid_argument] unless [base t <= pos < issued t]. *)

val release : t -> below:int -> unit
(** Forget every position below [below] (clamped to {!issued}): their
    slots are cleared and {!base} advances. A released position can no
    longer be read. A [below] at or under {!base} does nothing. *)
