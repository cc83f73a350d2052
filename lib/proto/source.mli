(** Payload source with one-slot lookahead and a sliding outbox.

    Senders pull payloads from a [unit -> string option] supplier. A
    supplier returning [None] means "nothing available now", not
    necessarily "never again" — an application may queue more data later
    (as {!Blockack.Duplex} does). This wrapper re-polls on demand and
    buffers at most one payload so that checking for exhaustion never
    loses data.

    Every payload handed out gets the next position, from 0. The source
    holds positions [[base, issued)] — the outbox — so that a sender can
    resend or replay them; {!release} drops an acknowledged prefix, so a
    sender that releases as it is acknowledged holds about a window. *)

type t

val create : (unit -> string option) -> t

val next : t -> string option
(** Take the buffered payload if any, otherwise poll the supplier. *)

val exhausted : t -> bool
(** [true] when nothing is available right now: the lookahead slot is
    empty and a fresh poll returned [None]. A payload obtained by the
    poll is kept for the next {!next}. *)

val issued : t -> int
(** Total payloads ever handed out (distinct positions, not counting
    replays). Position [k] in this count is the resync handshake's
    currency: the receiver's POS names the next position it expects. *)

val base : t -> int
(** The lowest position still held: everything below it was released. *)

val get : t -> int -> string
(** [get t pos] is the payload at position [pos]. Raises
    [Invalid_argument] unless [base t <= pos < issued t]. *)

val release : t -> below:int -> unit
(** Forget every position below [below] (clamped to {!issued}): their
    slots are cleared and {!base} advances. A released position is never
    replayed. A [below] at or under {!base} does nothing. *)

val rewind : t -> to_:int -> unit
(** Replay the outbox from position [to_]: subsequent {!next} calls
    re-yield previously issued payloads in order before pulling fresh
    ones. The outbox stands in for the application's durable send
    buffer, like a TCP send buffer: it holds the unacknowledged suffix
    [[base, issued)], which is what lets a crashed sender — whose
    volatile retransmission state is gone — resume from the position the
    receiver announces. A sender that never releases (the blind-restart
    negative control, which replays from 0) keeps everything it issued.
    Raises [Invalid_argument] unless [base t <= to_ <= issued t]. *)
