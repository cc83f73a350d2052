(* Action 2′: one timer per outstanding message. Each band slot owns
   one persistent {!Ba_sim.Engine.slot} whose expiry reads the sequence
   number it is currently armed for from [tslot_seq], so arming a
   retransmission timer allocates nothing. The adaptive timeout
   (Karn/Jacobson) and the AIMD congestion window ride on these timers,
   so they live here too. *)
module Timers = struct
  type t = {
    engine : Ba_sim.Engine.t;
    config : Config.t;
    tslots : Ba_sim.Engine.slot array;  (* one persistent timer slot per band slot *)
    tslot_seq : int array;  (* seq each slot is armed for, -1 when disarmed *)
    sent_at : int array;  (* first-transmission time, for RTT sampling *)
    resent : int array;  (* per-message retransmission count (Karn's rule + backoff) *)
    estimator : Rtt_estimator.t option;
    (* AIMD congestion window (dynamic_window mode): cwnd counts messages,
       ack_credit accumulates fractional additive increase. *)
    mutable cwnd : int;
    mutable ack_credit : int;
  }

  let create engine config ~slots ~expire =
    let estimator =
      if config.Config.adaptive_rto then begin
        (* With a finite modulus the configured rto is the soundness floor
           (it encodes the channel-lifetime bound); unbounded wire numbers
           can chase the real round trip freely. *)
        let floor =
          match config.Config.wire_modulus with Some _ -> config.Config.rto | None -> 2
        in
        Some
          (Rtt_estimator.create ~floor ~ceiling:(60 * config.Config.rto)
             ~initial_rto:config.Config.rto ())
      end
      else None
    in
    {
      engine;
      config;
      tslots = Array.init slots (fun i -> Ba_sim.Engine.slot_create engine (fun () -> expire i));
      tslot_seq = Array.make slots (-1);
      sent_at = Array.make slots 0;
      resent = Array.make slots 0;
      estimator;
      cwnd = 1;
      ack_credit = 0;
    }

  let window t w = if t.config.Config.dynamic_window then min t.cwnd w else w

  let base_rto t =
    match t.estimator with Some e -> Rtt_estimator.rto e | None -> t.config.Config.rto

  (* Adaptive mode backs off per message: each retransmission of a
     message doubles its own timer, independently of its window mates (a
     shared backoff would compound across the whole window). Fixed mode
     keeps the paper's constant timeout period. *)
  let rto_for t slot =
    match t.estimator with
    | None -> t.config.Config.rto
    | Some _ ->
        let factor = 1 lsl min t.resent.(slot) 6 in
        min (base_rto t * factor) (60 * t.config.Config.rto)

  let arm t ~slot ~seq ~fresh =
    if fresh then begin
      t.resent.(slot) <- 0;
      t.sent_at.(slot) <- Ba_sim.Engine.now t.engine
    end;
    t.tslot_seq.(slot) <- seq;
    Ba_sim.Engine.slot_arm t.tslots.(slot) ~delay:(rto_for t slot)

  let due t slot ~na:_ = t.tslot_seq.(slot)

  let resend t ~slot ~oldest =
    (* Multiplicative decrease on timeout. *)
    if t.config.Config.dynamic_window then begin
      t.cwnd <- max 1 (t.cwnd / 2);
      t.ack_credit <- 0
    end;
    (* Karn's algorithm, second half: the rule in [acked] only excludes
       tainted samples, so during an outage the estimator would otherwise
       keep its stale pre-outage rto and every *newly* pumped message
       would retransmit at that collapsed value forever. Back off the
       shared estimate too, but only when the oldest outstanding message
       expires — w simultaneous per-message expiries must not compound
       into a 2^w backoff. The next genuine sample rebuilds the rto from
       srtt/rttvar as usual. *)
    if oldest then Option.iter Rtt_estimator.backoff t.estimator;
    t.resent.(slot) <- t.resent.(slot) + 1

  let acked t ~slot ~seq =
    (match t.estimator with
    | None -> ()
    | Some e ->
        (* Karn's rule: only first-transmission acknowledgments are
           unambiguous round-trip samples. *)
        if t.resent.(slot) = 0 then
          Rtt_estimator.observe e (Ba_sim.Engine.now t.engine - t.sent_at.(slot)));
    if t.tslot_seq.(slot) = seq then begin
      Ba_sim.Engine.slot_cancel t.tslots.(slot);
      t.tslot_seq.(slot) <- -1
    end

  (* Additive increase: one extra message of window per cwnd acknowledged
     (i.e. +1 per round trip at saturation). *)
  let slid t ~outstanding:_ ~advanced =
    if t.config.Config.dynamic_window && t.cwnd < t.config.Config.window then begin
      t.ack_credit <- t.ack_credit + advanced;
      if t.ack_credit >= t.cwnd then begin
        t.ack_credit <- 0;
        t.cwnd <- t.cwnd + 1
      end
    end

  let wipe t =
    Array.iter Ba_sim.Engine.slot_cancel t.tslots;
    Array.fill t.tslot_seq 0 (Array.length t.tslot_seq) (-1);
    Array.fill t.sent_at 0 (Array.length t.sent_at) 0;
    Array.fill t.resent 0 (Array.length t.resent) 0;
    Option.iter Rtt_estimator.reset t.estimator;
    t.cwnd <- 1;
    t.ack_credit <- 0
end

include Sender_core.Make (Timers)

let rto_now t = Timers.base_rto (timers t)
let srtt t = Option.map Rtt_estimator.srtt (timers t).Timers.estimator
let cwnd t = (timers t).Timers.cwnd
