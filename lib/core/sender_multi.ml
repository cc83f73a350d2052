(* Action 2′: one timer per outstanding message. Each slot keeps its
   timer as an int key, [(deadline, stamp)], in two columns, and the
   sender owns one {!Ba_sim.Engine.slot} that is always armed at the
   earliest key. Arming a timer reserves the insertion stamp
   ({!Ba_sim.Engine.take_stamp}) a per-message event would have taken,
   so the one slot fires every expiry exactly where that event would
   have fired, same-tick ties against every other event included. An
   acknowledgment only clears a column; the columns are rescanned for
   the next earliest key only when the armed key is acknowledged or
   fires, and a crash disarms the slot outright. The columns share the
   core's capacity and grow with it ({!grow}); a key does not depend on
   its slot, so a grow moves no expiry. An expiry names its slot, and
   the message it stands for is the one member of [na, ns) in that
   slot. The adaptive timeout (Karn/Jacobson) and the AIMD
   congestion window ride on these timers, so they live here too. *)
module Timers = struct
  (* Karn/Jacobson and AIMD state, kept only under [adaptive_rto] or
     [dynamic_window]. *)
  type tuning = {
    (* first-transmission time (RTT sampling) and per-message
       retransmission count (Karn's rule + backoff): adaptive_rto only *)
    mutable sent_at : int array;
    mutable resent : int array;
    estimator : Rtt_estimator.t option;
    (* AIMD congestion window (dynamic_window mode): cwnd counts messages,
       ack_credit accumulates fractional additive increase. *)
    mutable cwnd : int;
    mutable ack_credit : int;
  }

  type t = {
    mutable deadline : int array;  (* expiry tick per slot, [max_int] when disarmed *)
    mutable stamp : int array;  (* insertion stamp reserved when that slot was armed *)
    mutable armed : int;
        (* slot whose key the sender's engine slot is armed at; -1 when
           none, or when an acknowledgment cleared that key and [slid]
           has yet to rescan *)
    tuning : tuning option;
  }

  type sender = t Sender_core.core

  let earlier t i j =
    t.deadline.(i) < t.deadline.(j)
    || (t.deadline.(i) = t.deadline.(j) && t.stamp.(i) < t.stamp.(j))

  let arm_at (s : sender) i =
    let t = s.timers in
    t.armed <- i;
    Ba_sim.Engine.slot_arm_keyed s.engine s.slot ~at:t.deadline.(i) ~stamp:t.stamp.(i)

  (* Re-arm the one slot at the earliest armed key, or disarm it. *)
  let rescan (s : sender) =
    let t = s.timers in
    let best = ref (-1) in
    for i = 0 to Array.length t.deadline - 1 do
      if t.deadline.(i) < max_int && (!best < 0 || earlier t i !best) then best := i
    done;
    if !best >= 0 then arm_at s !best
    else begin
      t.armed <- -1;
      Ba_sim.Engine.slot_cancel s.engine s.slot
    end

  (* The slot fired, so its key is the earliest: clear it and arm the next
     one before the expiry runs (and possibly re-arms this slot). *)
  let fired (s : sender) =
    let t = s.timers in
    let i = t.armed in
    t.deadline.(i) <- max_int;
    rescan s;
    i

  let create config =
    let tuning =
      if config.Config.adaptive_rto || config.Config.dynamic_window then begin
        let estimator =
          if config.Config.adaptive_rto then begin
            (* With a finite modulus the configured rto is the soundness
               floor (it encodes the channel-lifetime bound); unbounded
               wire numbers can chase the real round trip freely. *)
            let floor =
              match config.Config.wire_modulus with Some _ -> config.Config.rto | None -> 2
            in
            Some
              (Rtt_estimator.create ~floor ~ceiling:(60 * config.Config.rto)
                 ~initial_rto:config.Config.rto ())
          end
          else None
        in
        Some { sent_at = [||]; resent = [||]; estimator; cwnd = 1; ack_credit = 0 }
      end
      else None
    in
    { deadline = [||]; stamp = [||]; armed = -1; tuning }

  let estimator t = match t.tuning with Some { estimator; _ } -> estimator | None -> None
  let cwnd t = match t.tuning with Some u -> u.cwnd | None -> 1

  let window (s : sender) w =
    match s.timers.tuning with
    | Some u when s.config.Config.dynamic_window -> min u.cwnd w
    | Some _ | None -> w

  let base_rto (s : sender) =
    match estimator s.timers with Some e -> Rtt_estimator.rto e | None -> s.config.Config.rto

  (* Adaptive mode backs off per message: each retransmission of a
     message doubles its own timer, independently of its window mates (a
     shared backoff would compound across the whole window). Fixed mode
     keeps the paper's constant timeout period. *)
  let rto_for (s : sender) slot =
    match s.timers.tuning with
    | Some { estimator = Some e; resent; _ } ->
        min (Rtt_estimator.rto e * (1 lsl min resent.(slot) 6)) (60 * s.config.Config.rto)
    | Some _ | None -> s.config.Config.rto

  (* The core arms only a slot whose key is clear: a fresh message
     takes an acknowledged slot, and a retransmission follows its own
     expiry. A fresh stamp orders after every armed one, so the new key
     is the earliest only if its deadline is earlier. *)
  let arm (s : sender) ~slot ~fresh =
    let t = s.timers in
    let now = Ba_sim.Engine.now s.engine in
    (match t.tuning with
    | Some u when fresh && u.estimator <> None ->
        u.resent.(slot) <- 0;
        u.sent_at.(slot) <- now
    | Some _ | None -> ());
    t.deadline.(slot) <- now + rto_for s slot;
    t.stamp.(slot) <- Ba_sim.Engine.take_stamp s.engine;
    if t.armed < 0 || earlier t slot t.armed then arm_at s slot

  (* Members of [na, ns) are distinct mod capacity, so the slot alone
     names the message. *)
  let due t slot ~na =
    let cap = Array.length t.deadline in
    na + ((slot - (na mod cap) + cap) mod cap)

  (* Keys move with their messages; [armed] follows its key. *)
  let grow t ~slots ~na ~ns =
    let place a fill = Ba_util.Ring_buffer.place a ~cap:slots ~fill ~lo:na ~hi:ns in
    if t.armed >= 0 then t.armed <- due t t.armed ~na mod slots;
    t.deadline <- place t.deadline max_int;
    t.stamp <- place t.stamp 0;
    match t.tuning with
    | Some u when u.estimator <> None ->
        u.sent_at <- place u.sent_at 0;
        u.resent <- place u.resent 0
    | Some _ | None -> ()

  let resend (s : sender) ~slot ~oldest =
    match s.timers.tuning with
    | None -> ()
    | Some u -> (
        (* Multiplicative decrease on timeout. *)
        if s.config.Config.dynamic_window then begin
          u.cwnd <- max 1 (u.cwnd / 2);
          u.ack_credit <- 0
        end;
        (* Karn's algorithm, second half: the rule in [acked] only
           excludes tainted samples, so during an outage the estimator
           would otherwise keep its stale pre-outage rto and every
           *newly* pumped message would retransmit at that collapsed
           value forever. Back off the shared estimate too, but only
           when the oldest outstanding message expires — w simultaneous
           per-message expiries must not compound into a 2^w backoff.
           The next genuine sample rebuilds the rto from srtt/rttvar as
           usual. *)
        match u.estimator with
        | None -> ()
        | Some e ->
            if oldest then Rtt_estimator.backoff e;
            u.resent.(slot) <- u.resent.(slot) + 1)

  (* Clearing the armed key leaves the slot armed at it until [slid],
     which the core calls after every acknowledgment, rescans once for
     the whole block. *)
  let acked (s : sender) ~slot =
    let t = s.timers in
    (match t.tuning with
    | Some { estimator = Some e; resent; sent_at; _ } ->
        (* Karn's rule: only first-transmission acknowledgments are
           unambiguous round-trip samples. *)
        if resent.(slot) = 0 then
          Rtt_estimator.observe e (Ba_sim.Engine.now s.engine - sent_at.(slot))
    | Some _ | None -> ());
    t.deadline.(slot) <- max_int;
    if t.armed = slot then t.armed <- -1

  (* Additive increase: one extra message of window per cwnd acknowledged
     (i.e. +1 per round trip at saturation). *)
  let slid (s : sender) ~outstanding:_ ~advanced =
    let t = s.timers in
    if t.armed < 0 && Ba_sim.Engine.slot_armed s.engine s.slot then rescan s;
    match t.tuning with
    | Some u when s.config.Config.dynamic_window && u.cwnd < s.config.Config.window ->
        u.ack_credit <- u.ack_credit + advanced;
        if u.ack_credit >= u.cwnd then begin
          u.ack_credit <- 0;
          u.cwnd <- u.cwnd + 1
        end
    | Some _ | None -> ()

  let wipe (s : sender) =
    let t = s.timers in
    Ba_sim.Engine.slot_cancel s.engine s.slot;
    t.armed <- -1;
    Array.fill t.deadline 0 (Array.length t.deadline) max_int;
    match t.tuning with
    | None -> ()
    | Some u ->
        Array.fill u.sent_at 0 (Array.length u.sent_at) 0;
        Array.fill u.resent 0 (Array.length u.resent) 0;
        Option.iter Rtt_estimator.reset u.estimator;
        u.cwnd <- 1;
        u.ack_credit <- 0
end

include Sender_core.Make (Timers)

let rto_now = Timers.base_rto
let srtt t = Option.map Rtt_estimator.srtt (Timers.estimator t.Sender_core.timers)
let cwnd t = Timers.cwnd t.Sender_core.timers
