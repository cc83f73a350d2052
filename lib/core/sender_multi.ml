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
  type t = {
    engine : Ba_sim.Engine.t;
    config : Config.t;
    mutable deadline : int array;  (* expiry tick per slot, [max_int] when disarmed *)
    mutable stamp : int array;  (* insertion stamp reserved when that slot was armed *)
    slot : Ba_sim.Engine.slot;  (* the sender's one timer, armed at the earliest key *)
    mutable armed : int;
        (* slot whose key [slot] is armed at; -1 when none, or when an
           acknowledgment cleared that key and [slid] has yet to rescan *)
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

  let earlier t i j =
    t.deadline.(i) < t.deadline.(j)
    || (t.deadline.(i) = t.deadline.(j) && t.stamp.(i) < t.stamp.(j))

  let arm_at t i =
    t.armed <- i;
    Ba_sim.Engine.slot_arm_keyed t.engine t.slot ~at:t.deadline.(i) ~stamp:t.stamp.(i)

  (* Re-arm the one slot at the earliest armed key, or disarm it. *)
  let rescan t =
    let best = ref (-1) in
    for i = 0 to Array.length t.deadline - 1 do
      if t.deadline.(i) < max_int && (!best < 0 || earlier t i !best) then best := i
    done;
    if !best >= 0 then arm_at t !best
    else begin
      t.armed <- -1;
      Ba_sim.Engine.slot_cancel t.engine t.slot
    end

  (* The slot fired, so its key is the earliest: clear it and arm the next
     one before the expiry runs (and possibly re-arms this slot). *)
  let fire t expire =
    let i = t.armed in
    t.deadline.(i) <- max_int;
    rescan t;
    expire i

  let create engine config ~expire =
    let adaptive = config.Config.adaptive_rto in
    let estimator =
      if adaptive then begin
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
    let rec t =
      lazy
        {
          engine;
          config;
          deadline = [||];
          stamp = [||];
          slot = Ba_sim.Engine.slot_create engine (fun () -> fire (Lazy.force t) expire);
          armed = -1;
          sent_at = [||];
          resent = [||];
          estimator;
          cwnd = 1;
          ack_credit = 0;
        }
    in
    Lazy.force t

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

  (* The core arms only a slot whose key is clear: a fresh message
     takes an acknowledged slot, and a retransmission follows its own
     expiry. A fresh stamp orders after every armed one, so the new key
     is the earliest only if its deadline is earlier. *)
  let arm t ~slot ~seq:_ ~fresh =
    let now = Ba_sim.Engine.now t.engine in
    if fresh && t.estimator <> None then begin
      t.resent.(slot) <- 0;
      t.sent_at.(slot) <- now
    end;
    t.deadline.(slot) <- now + rto_for t slot;
    t.stamp.(slot) <- Ba_sim.Engine.take_stamp t.engine;
    if t.armed < 0 || earlier t slot t.armed then arm_at t slot

  (* Members of [na, ns) are distinct mod capacity, so the slot alone
     names the message. *)
  let due t slot ~na =
    let cap = Array.length t.deadline in
    na + ((slot - (na mod cap) + cap) mod cap)

  (* Keys move with their messages; [armed] follows its key. *)
  let grow t ~slots ~na ~ns =
    let old = Array.length t.deadline in
    let place a fill =
      let b = Array.make slots fill in
      for seq = na to ns - 1 do
        b.(seq mod slots) <- a.(seq mod old)
      done;
      b
    in
    if t.armed >= 0 then t.armed <- due t t.armed ~na mod slots;
    t.deadline <- place t.deadline max_int;
    t.stamp <- place t.stamp 0;
    if t.estimator <> None then begin
      t.sent_at <- place t.sent_at 0;
      t.resent <- place t.resent 0
    end

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
    match t.estimator with
    | None -> ()
    | Some e ->
        if oldest then Rtt_estimator.backoff e;
        t.resent.(slot) <- t.resent.(slot) + 1

  (* Clearing the armed key leaves the slot armed at it until [slid],
     which the core calls after every acknowledgment, rescans once for
     the whole block. *)
  let acked t ~slot ~seq:_ =
    (match t.estimator with
    | None -> ()
    | Some e ->
        (* Karn's rule: only first-transmission acknowledgments are
           unambiguous round-trip samples. *)
        if t.resent.(slot) = 0 then
          Rtt_estimator.observe e (Ba_sim.Engine.now t.engine - t.sent_at.(slot)));
    t.deadline.(slot) <- max_int;
    if t.armed = slot then t.armed <- -1

  (* Additive increase: one extra message of window per cwnd acknowledged
     (i.e. +1 per round trip at saturation). *)
  let slid t ~outstanding:_ ~advanced =
    if t.armed < 0 && Ba_sim.Engine.slot_armed t.engine t.slot then rescan t;
    if t.config.Config.dynamic_window && t.cwnd < t.config.Config.window then begin
      t.ack_credit <- t.ack_credit + advanced;
      if t.ack_credit >= t.cwnd then begin
        t.ack_credit <- 0;
        t.cwnd <- t.cwnd + 1
      end
    end

  let wipe t =
    Ba_sim.Engine.slot_cancel t.engine t.slot;
    t.armed <- -1;
    Array.fill t.deadline 0 (Array.length t.deadline) max_int;
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
