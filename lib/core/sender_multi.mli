(** Block-acknowledgment sender with per-message timers (Section IV).

    Functionally like {!Sender}, but every outstanding message carries
    its own retransmission timer (the paper's action 2′). When a whole
    block acknowledgment is lost, all covered timers expire around the
    same time and the covered messages are retransmitted back-to-back, so
    recovery costs roughly one timeout plus one round trip — instead of
    the simple sender's one full timeout period per covered message.

    Soundness still requires [rto > 2 * max link delay + ack_coalesce],
    which makes an expired per-message timer imply that no copy of that
    message or of its acknowledgment is in transit. Everything but the
    timers is {!Sender_core}, shared with {!Sender}. *)

include Sender_core.S

val rto_now : t -> int
(** The timeout currently used when arming timers: the configured [rto],
    or the estimator's value when [adaptive_rto] is set (Jacobson/Karels
    with Karn's rule and exponential backoff — see {!Rtt_estimator}). *)

val srtt : t -> float option
(** Smoothed round-trip estimate, when adaptive timeouts are enabled. *)

val cwnd : t -> int
(** Current AIMD congestion window ([dynamic_window] mode); equals 1 and
    is unused otherwise. *)
