(** Block-acknowledgment sender with the simple timeout (Sections II + V).

    Keeps a window of at most [w] outstanding payloads, retransmits the
    oldest outstanding message ([na]) when its single timer expires, and
    processes block acknowledgments [(lo, hi)] that may cover any range
    of outstanding messages. The timer restarts on every data
    transmission, so "expired" means no data was sent for a full [rto] —
    with [rto > 2 * max link delay + ack_coalesce] that implies no copy
    of any message or acknowledgment is still in transit, which is the
    paper's timeout soundness condition.

    Sequence numbers are full-width internally; the wire carries them
    through {!Seqcodec} (modulo [2w] when the config sets a modulus).
    Everything but the timer is {!Sender_core}, shared with
    {!Sender_multi}. *)

include Sender_core.S
