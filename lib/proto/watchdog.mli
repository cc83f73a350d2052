(** Per-flow liveness watchdog: Healthy → Degraded → Stalled →
    Quarantined, with hysteresis.

    A pure state machine over periodic progress observations — no engine,
    no timers. The owner (a {!Cell}, or the UDP client) calls {!check}
    every [check_interval] ticks with the flow's delivered count, and
    {!check} pulls the owner's lever for the {!action}: [Resync]
    crash-restarts the flow's sender so the REQ/POS/FIN handshake
    re-establishes the window; [Quarantine]
    gates the flow off the shared links (isolating a repeat offender so
    the other [n-1] flows keep their throughput); [Release] ends
    probation with one more resync attempt.

    Escalation: [stall_checks] consecutive checks without delivery
    progress moves Healthy → Degraded; [degraded_checks] more trigger the
    first [Resync] (state Stalled). Each resync rewinds the idle counter
    to the Degraded threshold, giving the handshake a full
    [degraded_checks] grace period; after [max_resyncs] fruitless resyncs
    the next escalation returns [Quarantine]. Progress snaps any
    non-quarantined state back to Healthy; quarantine only lifts after
    [probation_checks] checks. *)

type state = Healthy | Degraded | Stalled | Quarantined

val state_name : state -> string
(** ["healthy"] / ["degraded"] / ["stalled"] / ["quarantined"]. *)

type action =
  | Nothing
  | Resync  (** crash+restart the sender through the resync handshake *)
  | Quarantine  (** gate the flow off the shared links *)
  | Release  (** probation over: un-gate and resync once more *)

type config = {
  check_interval : int;  (** ticks between observations *)
  stall_checks : int;  (** silent checks before Healthy → Degraded *)
  degraded_checks : int;  (** further silent checks before acting *)
  max_resyncs : int;  (** fruitless resyncs tolerated before quarantine *)
  probation_checks : int;  (** checks a quarantined flow sits out *)
}

val default_config : config
(** interval 1000, 2 checks to degrade, 2 more to act, 2 resyncs,
    probation 4. *)

type t

val create : config -> t
(** Fresh machine in [Healthy]. Raises [Invalid_argument] on a
    non-positive interval or check count. *)

val observe : t -> delivered:int -> completed:bool -> action
(** One periodic check: [delivered] is the flow's cumulative in-order
    delivery count. A completed flow is Healthy forever after. *)

val check :
  t -> delivered:int -> completed:bool -> resync:(unit -> unit) -> gate:(bool -> unit) -> unit
(** {!observe}, then pull the owner's lever for the action: [Resync]
    calls [resync ()], [Quarantine] [gate true], and [Release]
    [gate false] then [resync ()]. *)

val state : t -> state

val quarantine_events : t -> int
(** Times this flow entered quarantine. *)

val resync_events : t -> int
(** Watchdog-initiated resyncs (Release re-syncs not included). *)
