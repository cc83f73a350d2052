(* Per-flow liveness watchdog: a pure state machine over periodic
   progress observations. The owner keeps the clock (it calls [check]
   every [check_interval] ticks) and supplies the two levers [check]
   pulls — [resync], a crash+restart of the flow's sender through the
   REQ/POS/FIN handshake, and [gate], closing the flow off its links
   and reopening it. Keeping the machine engine-free makes every
   transition unit-testable without a simulation. *)

type state = Healthy | Degraded | Stalled | Quarantined

let state_name = function
  | Healthy -> "healthy"
  | Degraded -> "degraded"
  | Stalled -> "stalled"
  | Quarantined -> "quarantined"

type action = Nothing | Resync | Quarantine | Release

type config = {
  check_interval : int;
  stall_checks : int;
  degraded_checks : int;
  max_resyncs : int;
  probation_checks : int;
}

let default_config =
  { check_interval = 1_000; stall_checks = 2; degraded_checks = 2; max_resyncs = 2;
    probation_checks = 4 }

let validate_config c =
  if c.check_interval <= 0 then invalid_arg "Watchdog: check_interval must be positive";
  if c.stall_checks < 1 || c.degraded_checks < 1 then
    invalid_arg "Watchdog: stall_checks and degraded_checks must be >= 1";
  if c.max_resyncs < 0 then invalid_arg "Watchdog: max_resyncs must be >= 0";
  if c.probation_checks < 1 then invalid_arg "Watchdog: probation_checks must be >= 1"

type t = {
  config : config;
  mutable state : state;
  mutable last_progress : int;  (* delivered count at the last observed progress *)
  mutable idle : int;  (* consecutive checks without progress *)
  mutable resyncs_since_progress : int;
  mutable probation : int;  (* checks left before a quarantined flow is released *)
  mutable quarantine_events : int;
  mutable resync_events : int;
}

let create config =
  validate_config config;
  {
    config;
    state = Healthy;
    last_progress = 0;
    idle = 0;
    resyncs_since_progress = 0;
    probation = 0;
    quarantine_events = 0;
    resync_events = 0;
  }

(* One periodic check. Hysteresis both ways: escalation needs
   [stall_checks] silent checks to leave Healthy and [degraded_checks]
   more to act, and each Resync winds the counter back to the Degraded
   threshold so the handshake gets a full [degraded_checks] grace period
   before the next escalation. Any delivery progress snaps the machine
   back to Healthy — except out of Quarantined, which only probation
   lifts (that is the isolation guarantee). *)
let observe t ~delivered ~completed =
  if completed then begin
    t.state <- Healthy;
    t.idle <- 0;
    Nothing
  end
  else if delivered > t.last_progress && t.state <> Quarantined then begin
    t.last_progress <- delivered;
    t.idle <- 0;
    t.resyncs_since_progress <- 0;
    t.state <- Healthy;
    Nothing
  end
  else
    match t.state with
    | Quarantined ->
        t.last_progress <- max t.last_progress delivered;
        t.probation <- t.probation - 1;
        if t.probation <= 0 then begin
          (* Released on parole: back to Degraded with a clean resync
             allowance, one escalation away from re-quarantine. *)
          t.state <- Degraded;
          t.idle <- t.config.stall_checks;
          t.resyncs_since_progress <- 0;
          Release
        end
        else Nothing
    | Healthy | Degraded | Stalled ->
        t.idle <- t.idle + 1;
        if t.idle >= t.config.stall_checks + t.config.degraded_checks then
          if t.resyncs_since_progress >= t.config.max_resyncs then begin
            t.state <- Quarantined;
            t.quarantine_events <- t.quarantine_events + 1;
            t.probation <- t.config.probation_checks;
            Quarantine
          end
          else begin
            t.state <- Stalled;
            t.resyncs_since_progress <- t.resyncs_since_progress + 1;
            t.resync_events <- t.resync_events + 1;
            t.idle <- t.config.stall_checks;
            Resync
          end
        else begin
          if t.state = Healthy && t.idle >= t.config.stall_checks then t.state <- Degraded;
          Nothing
        end

let check t ~delivered ~completed ~resync ~gate =
  match observe t ~delivered ~completed with
  | Nothing -> ()
  | Resync -> resync ()
  | Quarantine -> gate true
  | Release ->
      gate false;
      resync ()

let state t = t.state
let quarantine_events t = t.quarantine_events
let resync_events t = t.resync_events
