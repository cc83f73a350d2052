(** Retransmission frontier: real-time enforcement of the paper's
    single-copy invariant.

    Assertion 8 guarantees that any in-transit data message [m] satisfies
    [m >= na >= nr - w], which is exactly what makes a [2w] wire modulus
    lossless (assertion 11). A timer-driven sender can break this: it may
    retransmit [seq] while the acknowledgment that covers [seq] is
    already on its way back; the window then slides past [seq] and, if
    more than [w] new messages are delivered while the stale copy is
    still in flight, the receiver decodes the copy into the *future*
    window — delivering an old payload as a new one.

    The guard closes the race without any knowledge the sender does not
    have: after retransmitting [seq], hold the send frontier at
    [seq + w] until every copy of [seq] and every acknowledgment it
    could trigger has aged out of the network (one [rto], since
    [rto > 2 * max transit + ack delay] is already required for timeout
    soundness). While a hold is active, [nr <= ns <= seq + w], so the
    receiver's decode window never drifts past the stale copy. *)

type t

val create : Ba_sim.Engine.t -> retry:(unit -> unit) -> t
(** [create engine ~retry] makes a guard with no hold. [retry] is the
    callback {!when_blocked} schedules, registered once here in an
    engine slot. *)

val note_retransmission : t -> seq:int -> window:int -> hold_for:int -> unit
(** Record that [seq] was retransmitted now: cap the frontier at
    [seq + window] for the next [hold_for] ticks. *)

val frontier : t -> int
(** Lowest active cap, or [max_int] when unrestricted. Expired holds are
    pruned on the fly. *)

val clear : t -> unit
(** Drop all active holds (crash–restart wipes the volatile sender; the
    stale copies the holds were guarding are rejected by epoch instead). *)

val when_blocked : t -> unit
(** Arrange for the guard's [retry ()] to run when the earliest active
    hold expires (no-op when unrestricted). At most one retry is pending
    at a time; arming it takes a fresh insertion stamp, as a newly
    scheduled event would. *)
