type drop_policy = Drop_new | Drop_furthest

type t = {
  window : int;
  rto : int;
  wire_modulus : int option;
  ack_coalesce : int;
  stenning_gap : int;
  dynamic_window : bool;
  adaptive_rto : bool;
  max_transit : int option;
  rx_budget : int option;
      (* [Some b]: the receiver may hold at most [b] out-of-order
         reassembly slots beyond its contiguous run; further in-window
         frames hit [drop_policy]. [None]: the full window (the paper's
         assumption of room for every outstanding message). *)
  drop_policy : drop_policy;
      (* What a budget-full receiver does with a fresh in-window frame
         it has no room for: [Drop_new] discards the arrival, [Drop_furthest]
         evicts the buffered frame furthest from the delivery frontier
         (Jain's preferred policy: slots near [nr] complete runs sooner).
         Either way the victim was never acknowledged, so the sender's
         timer retransmits it — a buffer-pressure drop is behaviorally a
         channel loss. *)
  resync_epochs : bool;
      (* [true]: crash-restart bumps the incarnation epoch (stable
         storage) and runs the REQ/POS/FIN resync handshake before
         resuming. [false]: the negative control — a restart comes back
         with zeroed volatile state, no epoch bump and no handshake,
         which is exactly the stale-state failure mode the self-
         stabilizing-ARQ literature warns about. *)
}

let default =
  {
    window = 16;
    rto = 250;
    wire_modulus = None;
    ack_coalesce = 0;
    stenning_gap = 0;
    dynamic_window = false;
    adaptive_rto = false;
    max_transit = None;
    rx_budget = None;
    drop_policy = Drop_new;
    resync_epochs = true;
  }

let validate t =
  if t.window <= 0 then invalid_arg "Proto_config: window must be positive";
  if t.rto <= 0 then invalid_arg "Proto_config: rto must be positive";
  if t.ack_coalesce < 0 then invalid_arg "Proto_config: ack_coalesce must be >= 0";
  if t.stenning_gap < 0 then invalid_arg "Proto_config: stenning_gap must be >= 0";
  (match t.max_transit with
  | Some m when m <= 0 -> invalid_arg "Proto_config: max_transit must be positive"
  | Some m when t.rto <= (2 * m) + t.ack_coalesce ->
      invalid_arg "Proto_config: rto must exceed 2*max_transit + ack_coalesce"
  | Some _ | None -> ());
  (match t.rx_budget with
  | Some b when b < 1 || b > t.window ->
      invalid_arg
        (Printf.sprintf "Proto_config: rx_budget %d outside [1, window=%d]" b t.window)
  | Some _ | None -> ());
  match t.wire_modulus with
  | None -> ()
  | Some n ->
      (* n >= w + 1 is the bare minimum for any windowed scheme; block
         acknowledgment additionally needs n >= 2w, which the block-ack
         endpoints enforce themselves. *)
      if n < t.window + 1 then
        invalid_arg
          (Printf.sprintf "Proto_config: wire modulus %d < window+1=%d" n (t.window + 1))

let make ?window ?rto ?wire_modulus ?ack_coalesce ?stenning_gap ?dynamic_window ?adaptive_rto
    ?max_transit ?rx_budget ?drop_policy ?resync_epochs () =
  let t =
    {
      window = Option.value ~default:default.window window;
      rto = Option.value ~default:default.rto rto;
      wire_modulus = Option.value ~default:default.wire_modulus wire_modulus;
      ack_coalesce = Option.value ~default:default.ack_coalesce ack_coalesce;
      stenning_gap = Option.value ~default:default.stenning_gap stenning_gap;
      dynamic_window = Option.value ~default:default.dynamic_window dynamic_window;
      adaptive_rto = Option.value ~default:default.adaptive_rto adaptive_rto;
      max_transit;
      rx_budget;
      drop_policy = Option.value ~default:default.drop_policy drop_policy;
      resync_epochs = Option.value ~default:default.resync_epochs resync_epochs;
    }
  in
  validate t;
  t

let drop_policy_name = function Drop_new -> "drop-new" | Drop_furthest -> "drop-furthest"

let hold_duration t =
  match t.max_transit with Some m -> (2 * m) + t.ack_coalesce | None -> t.rto
