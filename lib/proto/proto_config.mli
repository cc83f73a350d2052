(** Configuration shared by all simulated protocol implementations. *)

type drop_policy =
  | Drop_new  (** discard the arriving frame when the reassembly budget is full *)
  | Drop_furthest
      (** evict the buffered frame furthest from the delivery frontier
          instead (Jain's caching policy: slots near [nr] complete runs
          sooner, so they are worth more under pressure) *)

type t = {
  window : int;  (** maximum outstanding data messages, the paper's [w] *)
  rto : int;
      (** retransmission timeout in ticks. Soundness of the paper's
          timeout rule needs [rto > 2 * max link delay + ack_coalesce]
          so that "timer expired" implies "no copy in transit". *)
  wire_modulus : int option;
      (** [Some n]: sequence numbers cross the wire modulo [n] (the paper
          proves [n = 2 * window] suffices for block acknowledgment).
          [None]: unbounded wire numbers. *)
  ack_coalesce : int;
      (** receiver-side delay (ticks) before flushing a pending block
          acknowledgment, letting one ack cover more data. 0 = ack
          immediately. *)
  stenning_gap : int;
      (** Stenning baseline only: minimum ticks between two sends that
          reuse the same wire sequence number. *)
  dynamic_window : bool;
      (** Section VI's closing remark: "it is possible to extend all our
          protocols to have variable size windows". When true, senders
          with per-message timers treat [window] as a *maximum* and run
          an AIMD congestion window inside it: +1 message per window's
          worth of acknowledgments, halved on timeout. Useful when the
          path contains a bottleneck queue ({!Ba_channel.Link} with
          [bottleneck]); a no-op benefit-wise on loss-only links. *)
  adaptive_rto : bool;
      (** When true, senders with per-message timers estimate the round
          trip (Jacobson/Karels, Karn's rule) and adapt their timeout.
          With a finite wire modulus the configured [rto] stays the lower
          bound (it is what makes the timeout sound); with unbounded wire
          numbers the estimator may go below it. *)
  max_transit : int option;
      (** Known upper bound on one-way transit time (the link's maximum
          delay). Optional tuning knob: when set, retransmission-frontier
          holds shrink from [rto] to [2 * max_transit + ack_coalesce],
          reducing post-loss throttling. Must satisfy
          [rto > 2 * max_transit + ack_coalesce]. *)
  rx_budget : int option;
      (** [Some b]: hard cap ([1..window]) on the receiver's
          out-of-order reassembly slots beyond its contiguous run.
          Fresh in-window frames arriving over budget are handled per
          [drop_policy]; the run-extending frame ([v = vr]) is always
          admitted, which is what keeps drop-new from livelocking. A
          victim was never acknowledged, so a budget drop is
          behaviorally a channel loss. [None]: the paper's assumption —
          room for the full window. *)
  drop_policy : drop_policy;
      (** What a budget-full receiver does with a fresh in-window frame
          (only consulted when [rx_budget] is set). *)
  resync_epochs : bool;
      (** Crash–restart semantics for the endpoints that support a
          [crash]/[restart] lifecycle. [true] (default): restart bumps a
          stable-storage incarnation epoch and runs the REQ/POS/FIN
          resync handshake ({!Wire}) before resuming, so old-incarnation
          traffic is rejected. [false]: the negative control — restart
          returns with zeroed volatile state, no epoch and no handshake,
          reproducing the duplicate-delivery failure the explorer's
          crash model exhibits. *)
}

val default : t
(** window 16, rto 250, unbounded wire numbers, immediate acks. *)

val make :
  ?window:int ->
  ?rto:int ->
  ?wire_modulus:int option ->
  ?ack_coalesce:int ->
  ?stenning_gap:int ->
  ?dynamic_window:bool ->
  ?adaptive_rto:bool ->
  ?max_transit:int ->
  ?rx_budget:int ->
  ?drop_policy:drop_policy ->
  ?resync_epochs:bool ->
  unit ->
  t
(** [default] with overrides; validates all fields. *)

val drop_policy_name : drop_policy -> string
(** ["drop-new"] / ["drop-furthest"], for reports and replay keys. *)

val hold_duration : t -> int
(** How long a retransmitted copy (and any acknowledgment it triggers)
    can survive in the network: [2 * max_transit + ack_coalesce] when
    [max_transit] is known, else the conservative [rto]. *)

val validate : t -> unit
(** Raises [Invalid_argument] on nonsensical combinations (non-positive
    window, modulus smaller than [window + 1], negative times). The
    block-acknowledgment endpoints additionally require a modulus of at
    least [2 * window] and check it themselves. *)

