(* Old-vs-new data-path equivalence (property test).

   The zero-allocation refactor rewrote the endpoint bookkeeping — the
   receiver's boxed-ring reassembly became flat arrays, the sender's
   per-sequence timer closures became persistent engine slots — while
   claiming byte-identical observable behavior. This file holds it to
   that claim: the pre-refactor sender and receiver are embedded below
   verbatim (as [Ref_impl], still compiling against today's interfaces),
   wrapped in the same {!Ba_proto.Protocol.S} signature, and driven
   through identical harness runs — same seeds, same fault plans, same
   crash schedules. Every run must produce an identical result record
   (delivered counts, acks, retransmissions, latency samples, ticks) and,
   in the manually-wired scenarios, an identical wire-level trace and
   delivered-payload sequence. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Engine = Ba_sim.Engine
module Wire = Ba_proto.Wire
module Dist = Ba_channel.Dist
module Link = Ba_channel.Link
module Fault_plan = Ba_channel.Fault_plan
module Crash_plan = Ba_proto.Crash_plan
module Harness = Ba_proto.Harness

(* ------------------------------------------------------------------ *)
(* Reference implementations: the pre-refactor [Receiver] and
   [Sender_multi], verbatim. Do not modernise these — their point is to
   be the old code. *)

module Ref_impl = struct
  (* The copies keep their full original API; most accessors go unused
     here. *)
  [@@@warning "-32"]

  (* The old code armed its timers through a [Ba_sim.Timer] record: a
     slot with a default duration. The engine no longer has one, so the
     reference keeps a private copy and its own text. *)
  module Ba_sim = struct
    module Engine = Ba_sim.Engine

    module Timer = struct
      type t = { engine : Engine.t; slot : Engine.slot; duration : int }

      let create engine ~duration f = { engine; slot = Engine.slot_create engine f; duration }
      let start_for t d = Engine.slot_arm t.engine t.slot ~delay:d
      let start t = start_for t t.duration
      let stop t = Engine.slot_cancel t.engine t.slot
      let is_armed t = Engine.slot_armed t.engine t.slot
    end
  end

  (* The old sender replayed through a cursor in the outbox, moved by
     [rewind]. The outbox no longer has one (the sender's [ns] is the
     cursor), so the reference keeps a private copy of the outbox it
     used, and its own text. *)
  module Ba_proto = struct
    include Ba_proto

    module Source = struct
      (* The outbox is a ring over positions [base, issued), at [pos mod
         capacity]. It starts empty and doubles as it fills, like the
         senders' window columns: a two-message flow holds two slots, and a
         sender that releases its acknowledged prefix holds about a window. *)
      type t = {
        supplier : unit -> string option;
        mutable ring : string array;
        mutable base : int;
        mutable issued : int;
        mutable cursor : int;
        mutable pending : string option;
      }

      (* A supplier raises [Exhausted] when it has nothing to send; the
         reference reads that as [None]. *)
      let create supplier =
        let supplier () =
          match supplier () with p -> Some p | exception Protocol.Exhausted -> None
        in
        { supplier; ring = [||]; base = 0; issued = 0; cursor = 0; pending = None }

      (* Room for one more position: double the capacity (from 1) and place
         [base, issued) again at its new slots. *)
      let grow t =
        let old = Array.length t.ring in
        let cap = max 1 (2 * old) in
        let ring = Array.make cap "" in
        for pos = t.base to t.issued - 1 do
          ring.(pos mod cap) <- t.ring.(pos mod old)
        done;
        t.ring <- ring

      let next t =
        if t.cursor < t.issued then begin
          (* Replaying the outbox after a resync rewind. *)
          let p = t.ring.(t.cursor mod Array.length t.ring) in
          t.cursor <- t.cursor + 1;
          Some p
        end
        else begin
          let fresh =
            match t.pending with
            | Some _ as p ->
                t.pending <- None;
                p
            | None -> t.supplier ()
          in
          (match fresh with
          | None -> ()
          | Some p ->
              if t.issued - t.base = Array.length t.ring then grow t;
              t.ring.(t.issued mod Array.length t.ring) <- p;
              t.issued <- t.issued + 1;
              t.cursor <- t.issued);
          fresh
        end

      let exhausted t =
        if t.cursor < t.issued then false
        else
          match t.pending with
          | Some _ -> false
          | None -> (
              match t.supplier () with
              | None -> true
              | Some p ->
                  t.pending <- Some p;
                  false)

      let rewind t ~to_ =
        if to_ < t.base || to_ > t.issued then
          invalid_arg
            (Printf.sprintf "Source.rewind: position %d outside held range [%d,%d]" to_ t.base
               t.issued);
        t.cursor <- to_
    end
  end

  (* The old endpoints kept their windows in a boxed ring, read through
     [get]'s option. The store's keyed ring has no [get] and takes a
     window edge on [set], so the reference keeps a private store with
     the old interface, a table by absolute index, and its own text. *)
  module Ba_util = struct
    module Ring_buffer = struct
      type 'a t = (int, 'a) Hashtbl.t

      let create capacity = Hashtbl.create capacity
      let set = Hashtbl.replace
      let get = Hashtbl.find_opt
      let mem = Hashtbl.mem
      let remove = Hashtbl.remove
      let occupancy = Hashtbl.length
      let iter = Hashtbl.iter
      let clear = Hashtbl.reset
    end
  end

  module Config = Blockack.Config
  module Seqcodec = Blockack.Seqcodec
  module Rtt_estimator = Blockack.Rtt_estimator

  (* The old sender's window guard took its retry closure on each
     blocked call; the guard now registers one at [create]. The
     reference keeps a private copy of the guard it used, and its own
     text. *)
  module Window_guard = struct
    (* Holds live in a pair of flat int arrays compacted in place: the old
       [hold list] re-allocated itself on every [prune] (one [List.filter]
       per pump call), which put the guard on the steady-loss allocation
       profile. A hold is a (cap, expiry) pair; [len] counts live entries.
       Expiries are in practice appended in nondecreasing order (the clock
       is monotonic and [hold_for] constant per sender), but nothing here
       assumes it — [prune] keeps every unexpired entry regardless of
       position, exactly like the [List.filter] it replaces. *)

    type t = {
      engine : Ba_sim.Engine.t;
      mutable caps : int array;
      mutable expiries : int array;
      mutable len : int;
      mutable retry_armed : bool;
    }

    (* A sender builds its guard on its first held retransmission, so the
       arrays are sized for use from the start. *)
    let initial_cap = 8

    let create engine =
      {
        engine;
        caps = Array.make initial_cap 0;
        expiries = Array.make initial_cap 0;
        len = 0;
        retry_armed = false;
      }

    (* Crash–restart support: holds protect in-flight copies of the dead
       incarnation, whose frames the restarted world rejects by epoch, so
       they are simply dropped. An already-armed retry fires harmlessly —
       it re-checks the (now empty) hold set. *)
    let clear t = t.len <- 0

    (* In-place stable compaction of the unexpired entries. Top-level
       recursive loops (here and below) rather than local refs/closures, so
       the per-pump guard checks allocate nothing. *)
    let rec prune_from t now i j =
      if i >= t.len then t.len <- j
      else if t.expiries.(i) > now then begin
        if j <> i then begin
          t.caps.(j) <- t.caps.(i);
          t.expiries.(j) <- t.expiries.(i)
        end;
        prune_from t now (i + 1) (j + 1)
      end
      else prune_from t now (i + 1) j

    let prune t = prune_from t (Ba_sim.Engine.now t.engine) 0 0

    let note_retransmission t ~seq ~window ~hold_for =
      prune t;
      if t.len = Array.length t.caps then begin
        let cap = 2 * t.len in
        let caps = Array.make cap 0 in
        Array.blit t.caps 0 caps 0 t.len;
        t.caps <- caps;
        let expiries = Array.make cap 0 in
        Array.blit t.expiries 0 expiries 0 t.len;
        t.expiries <- expiries
      end;
      t.caps.(t.len) <- seq + window;
      t.expiries.(t.len) <- Ba_sim.Engine.now t.engine + hold_for;
      t.len <- t.len + 1

    let rec min_over a len i acc = if i >= len then acc else min_over a len (i + 1) (min acc a.(i))

    let frontier t =
      prune t;
      min_over t.caps t.len 0 max_int

    let when_blocked t retry =
      prune t;
      if t.len > 0 && not t.retry_armed then begin
        let earliest = min_over t.expiries t.len 0 max_int in
        t.retry_armed <- true;
        Ba_sim.Engine.schedule_at t.engine ~at:earliest (fun () ->
            t.retry_armed <- false;
            retry ())
      end
  end

  module Receiver = struct
    type t = {
      config : Config.t;
      codec : Seqcodec.t;
      tx : Ba_proto.Wire.ack -> unit;
      deliver : string -> unit;
      buffer : string Ba_util.Ring_buffer.t;  (* payloads of [nr, nr + w) received out of order *)
      ack_timer : Ba_sim.Timer.t;
      sync_timer : Ba_sim.Timer.t;  (* POS retry while awaiting the sender's FIN *)
      mutable nr : int;
      mutable vr : int;
      mutable alive : bool;
      mutable epoch : int;  (* incarnation; stable storage, like [nr] *)
      mutable syncing : bool;  (* restarted; POS sent, FIN (or fresh data) pending *)
      mutable acks_sent : int;
      mutable dup_acks_sent : int;
      mutable corrupt_dropped : int;
      mutable pressure_dropped : int;  (* fresh in-window frames refused for buffer-full *)
      mutable pressure_evicted : int;  (* buffered frames evicted by Drop_furthest *)
      mutable stale_epoch_dropped : int;
      mutable resync_rounds : int;  (* handshake frames sent (POS) *)
      mutable restarts : int;
    }

    let send_ack t ~lo ~hi =
      t.acks_sent <- t.acks_sent + 1;
      t.tx
        (Ba_proto.Wire.make_ack_e ~epoch:t.epoch ~lo:(Seqcodec.encode t.codec lo)
           ~hi:(Seqcodec.encode t.codec hi))

    (* Handshake message 2 (POS): "my stable delivered count is [nr]; resume
       there". Sent in reply to a REQ, and spontaneously (with retries) after
       our own restart — the receiver is the position authority, so its
       restart skips REQ. Not counted in [acks_sent]: that is the paper's
       acknowledgment-economy metric and resync frames are not acks. *)
    let send_pos t =
      t.resync_rounds <- t.resync_rounds + 1;
      t.tx (Ba_proto.Wire.make_sync_pos ~epoch:t.epoch ~pos:t.nr);
      if t.syncing then Ba_sim.Timer.start t.sync_timer

    (* Action 5: acknowledge the run [nr, vr) in one block and hand its
       payloads to the application in order. *)
    let flush t =
      Ba_sim.Timer.stop t.ack_timer;
      if t.nr < t.vr then begin
        send_ack t ~lo:t.nr ~hi:(t.vr - 1);
        while t.nr < t.vr do
          (match Ba_util.Ring_buffer.get t.buffer t.nr with
          | Some payload ->
              Ba_util.Ring_buffer.remove t.buffer t.nr;
              t.deliver payload
          | None -> invalid_arg "Receiver.flush: hole in accepted run");
          t.nr <- t.nr + 1
        done
      end

    let create engine config ~tx ~deliver =
      Config.validate config;
      let codec = Seqcodec.create ~window:config.Config.window ~wire_modulus:config.Config.wire_modulus in
      let rec t =
        lazy
          {
            config;
            codec;
            tx;
            deliver;
            buffer = Ba_util.Ring_buffer.create config.Config.window;
            ack_timer =
              Ba_sim.Timer.create engine ~duration:config.Config.ack_coalesce (fun () ->
                  flush (Lazy.force t));
            sync_timer =
              Ba_sim.Timer.create engine ~duration:config.Config.rto (fun () ->
                  let t = Lazy.force t in
                  if t.alive && t.syncing then send_pos t);
            nr = 0;
            vr = 0;
            alive = true;
            epoch = 0;
            syncing = false;
            acks_sent = 0;
            dup_acks_sent = 0;
            corrupt_dropped = 0;
            pressure_dropped = 0;
            pressure_evicted = 0;
            stale_epoch_dropped = 0;
            resync_rounds = 0;
            restarts = 0;
          }
      in
      Lazy.force t

    (* The sender restarted into a later incarnation (we learn it from any
       frame carrying a higher epoch): adopt the epoch and discard the
       out-of-order buffer — the new incarnation will resend everything from
       the position we announce, and frames of the old one are now stale. *)
    let adopt_epoch t e =
      t.epoch <- e;
      t.vr <- t.nr;
      Ba_util.Ring_buffer.clear t.buffer;
      Ba_sim.Timer.stop t.ack_timer

    let stop_syncing t =
      if t.syncing then begin
        t.syncing <- false;
        Ba_sim.Timer.stop t.sync_timer
      end

    (* Budget admission (Jain, DEC-TR-342). Only the out-of-order slots
       beyond the contiguous run count against [rx_budget]: slots in
       [nr, vr) are committed — [flush] will acknowledge and deliver them —
       and the run-extending frame [v = vr] is always admitted, which is
       what keeps drop-new from livelocking on a full buffer. A refused or
       evicted frame was never acknowledged, so the sender's per-message
       timer retransmits it: a pressure drop is behaviorally a channel
       loss, and the block-ack ranges stay sound. *)
    let admit t v payload =
      let over_budget =
        match t.config.Config.rx_budget with
        | None -> false
        | Some b ->
            v > t.vr
            && Ba_util.Ring_buffer.occupancy t.buffer - (t.vr - t.nr) >= b
      in
      if not over_budget then Ba_util.Ring_buffer.set t.buffer v payload
      else
        match t.config.Config.drop_policy with
        | Config.Drop_new -> t.pressure_dropped <- t.pressure_dropped + 1
        | Config.Drop_furthest ->
            let furthest = ref (-1) in
            Ba_util.Ring_buffer.iter
              (fun i _ -> if i > t.vr && i > !furthest then furthest := i)
              t.buffer;
            if !furthest > v then begin
              Ba_util.Ring_buffer.remove t.buffer !furthest;
              t.pressure_evicted <- t.pressure_evicted + 1;
              Ba_util.Ring_buffer.set t.buffer v payload
            end
            else t.pressure_dropped <- t.pressure_dropped + 1

    (* Actions 3 + 4: record the reception, extend the contiguous run, and
       either flush immediately or leave the run open for coalescing. A
       frame that fails its checksum is discarded before any of that — it
       must neither be delivered nor acknowledged (the sender's timer will
       retransmit it), and its header cannot be trusted enough even to
       re-ack. With incarnation epochs on, a frame from a dead incarnation
       (lower epoch) is likewise rejected outright: accepting it is exactly
       the duplicate-delivery bug the crash spec exhibits. *)
    let on_data t d =
      if not t.alive then ()
      else if not (Ba_proto.Wire.data_ok d) then t.corrupt_dropped <- t.corrupt_dropped + 1
      else begin
        let epochs = t.config.Config.resync_epochs in
        if epochs && d.Ba_proto.Wire.epoch < t.epoch then
          t.stale_epoch_dropped <- t.stale_epoch_dropped + 1
        else begin
          if epochs && d.Ba_proto.Wire.epoch > t.epoch then adopt_epoch t d.Ba_proto.Wire.epoch;
          match d.Ba_proto.Wire.dkind with
          | Ba_proto.Wire.Sync_req -> if epochs then send_pos t
          | Ba_proto.Wire.Sync_fin -> stop_syncing t
          | Ba_proto.Wire.Msg ->
              (* Current-epoch data implies the sender knows our position:
                 an implicit FIN. *)
              stop_syncing t;
              let { Ba_proto.Wire.seq; payload; _ } = d in
              let v = Seqcodec.decode_data t.codec ~window:t.config.Config.window ~nr:t.nr seq in
              if v < t.nr then begin
                (* Already accepted: its acknowledgment must have been lost; re-ack. *)
                t.dup_acks_sent <- t.dup_acks_sent + 1;
                send_ack t ~lo:v ~hi:v
              end
              else if v < t.nr + t.config.Config.window then begin
                if not (Ba_util.Ring_buffer.mem t.buffer v) then admit t v payload;
                while Ba_util.Ring_buffer.mem t.buffer t.vr do
                  t.vr <- t.vr + 1
                done;
                if t.nr < t.vr then begin
                  if t.config.Config.ack_coalesce = 0 then flush t
                  else if not (Ba_sim.Timer.is_armed t.ack_timer) then Ba_sim.Timer.start t.ack_timer
                end
              end
              (* v >= nr + w cannot come from a conforming sender; drop defensively. *)
        end
      end

    (* Crash: all volatile state is gone — the out-of-order buffer, the
       contiguous frontier [vr], pending timers. What survives is what the
       application itself made durable: the delivered count [nr] (delivery
       to the app is durable by definition) and, with [resync_epochs], the
       incarnation epoch. *)
    let crash t =
      if t.alive then begin
        t.alive <- false;
        t.syncing <- false;
        Ba_sim.Timer.stop t.ack_timer;
        Ba_sim.Timer.stop t.sync_timer;
        Ba_util.Ring_buffer.clear t.buffer;
        t.vr <- t.nr
      end

    let restart t =
      if not t.alive then begin
        t.alive <- true;
        t.restarts <- t.restarts + 1;
        if t.config.Config.resync_epochs then begin
          t.epoch <- t.epoch + 1;
          t.syncing <- true;
          send_pos t
        end
        else begin
          (* Negative control: a naive restart zeroes everything, so stale
             in-flight copies of already-delivered data decode into the
             fresh acceptance window — duplicate delivery. *)
          t.nr <- 0;
          t.vr <- 0
        end
      end

    let nr t = t.nr
    let vr t = t.vr
    let buffered t = Ba_util.Ring_buffer.occupancy t.buffer

    let buffered_bytes t =
      let n = ref 0 in
      Ba_util.Ring_buffer.iter (fun _ p -> n := !n + String.length p) t.buffer;
      !n

    let pressure_dropped t = t.pressure_dropped
    let pressure_evicted t = t.pressure_evicted
    let acks_sent t = t.acks_sent
    let dup_acks_sent t = t.dup_acks_sent
    let corrupt_dropped t = t.corrupt_dropped
    let alive t = t.alive
    let epoch t = t.epoch
    let syncing t = t.syncing
    let stale_epoch_dropped t = t.stale_epoch_dropped
    let resync_rounds t = t.resync_rounds
    let restarts t = t.restarts
  end

  module Sender_multi = struct
    type t = {
      config : Config.t;
      codec : Seqcodec.t;
      engine : Ba_sim.Engine.t;
      tx : Ba_proto.Wire.data -> unit;
      source : Ba_proto.Source.t;
      buffer : string Ba_util.Ring_buffer.t;
      acked : unit Ba_util.Ring_buffer.t;
      timers : Ba_sim.Timer.t Ba_util.Ring_buffer.t;  (* one armed timer per outstanding message *)
      sent_at : int Ba_util.Ring_buffer.t;  (* first-transmission time, for RTT sampling *)
      resent : int Ba_util.Ring_buffer.t;  (* per-message retransmission count (Karn's rule + backoff) *)
      estimator : Rtt_estimator.t option;
      guard : Window_guard.t;
      sync_timer : Ba_sim.Timer.t;  (* REQ retry while awaiting the receiver's POS *)
      mutable na : int;
      mutable ns : int;
      mutable alive : bool;
      mutable epoch : int;  (* incarnation; stable storage *)
      mutable syncing : bool;  (* restarted; REQ sent, POS pending *)
      mutable retransmissions : int;
      mutable corrupt_acks_dropped : int;
      mutable stale_epoch_dropped : int;
      mutable resync_rounds : int;  (* handshake frames sent (REQ + FIN) *)
      mutable restarts : int;
      (* AIMD congestion window (dynamic_window mode): cwnd counts messages,
         ack_credit accumulates fractional additive increase. *)
      mutable cwnd : int;
      mutable ack_credit : int;
      mutable wclamp : int option;
          (* externally imposed window clamp (fabric backpressure); survives
             crash–restart because the pressure is outside this endpoint *)
    }

    let outstanding t = t.ns - t.na

    (* The effective window is the configured one narrowed by every active
       pressure signal: the static retransmit-buffer budget, any fabric
       backpressure clamp, and (in dynamic mode) the AIMD congestion
       window. *)
    let effective_window t =
      let w = t.config.Config.window in
      let w = match t.wclamp with Some c -> min w c | None -> w in
      if t.config.Config.dynamic_window then min t.cwnd w else w

    (* Additive increase: one extra message of window per cwnd acknowledged
       (i.e. +1 per round trip at saturation). *)
    let on_progress t acked_count =
      if t.config.Config.dynamic_window && t.cwnd < t.config.Config.window then begin
        t.ack_credit <- t.ack_credit + acked_count;
        if t.ack_credit >= t.cwnd then begin
          t.ack_credit <- 0;
          t.cwnd <- t.cwnd + 1
        end
      end

    (* Multiplicative decrease on timeout. *)
    let on_loss_signal t =
      if t.config.Config.dynamic_window then begin
        t.cwnd <- max 1 (t.cwnd / 2);
        t.ack_credit <- 0
      end

    let base_rto t =
      match t.estimator with Some e -> Rtt_estimator.rto e | None -> t.config.Config.rto

    (* Adaptive mode backs off per message: each retransmission of [seq]
       doubles its own timer, independently of its window mates (a shared
       backoff would compound across the whole window). Fixed mode keeps the
       paper's constant timeout period. *)
    let rto_for t seq =
      match t.estimator with
      | None -> t.config.Config.rto
      | Some _ ->
          let retx = Option.value ~default:0 (Ba_util.Ring_buffer.get t.resent seq) in
          let factor = 1 lsl min retx 6 in
          min (base_rto t * factor) (60 * t.config.Config.rto)

    (* Handshake message 1 (REQ): a restarted sender has no idea how much of
       its outbox the receiver already delivered; ask. Retried on a timer
       until POS arrives. *)
    let send_req t =
      t.resync_rounds <- t.resync_rounds + 1;
      t.tx (Ba_proto.Wire.make_sync_req ~epoch:t.epoch);
      Ba_sim.Timer.start t.sync_timer

    let send_fin t =
      t.resync_rounds <- t.resync_rounds + 1;
      t.tx (Ba_proto.Wire.make_sync_fin ~epoch:t.epoch)

    (* Action 2': the timer of message [seq] expired, meaning no copy of it
       or of a covering acknowledgment survives in either channel; resend it
       and re-arm its own timer only. *)
    let rec on_timeout t seq =
      if t.alive && (not t.syncing) && seq >= t.na && seq < t.ns
         && not (Ba_util.Ring_buffer.mem t.acked seq)
      then begin
        t.retransmissions <- t.retransmissions + 1;
        on_loss_signal t;
        (* Karn's algorithm, second half: the rule above (sample_rtt) only
           excludes tainted samples, so during an outage the estimator would
           otherwise keep its stale pre-outage rto and every *newly* pumped
           message would retransmit at that collapsed value forever. Back off
           the shared estimate too, but only when the oldest outstanding
           message expires — w simultaneous per-message expiries must not
           compound into a 2^w backoff. The next genuine sample rebuilds the
           rto from srtt/rttvar as usual. *)
        if seq = t.na then Option.iter Rtt_estimator.backoff t.estimator;
        let retx = Option.value ~default:0 (Ba_util.Ring_buffer.get t.resent seq) in
        Ba_util.Ring_buffer.set t.resent seq (retx + 1);
        (* With unbounded wire numbers decode is exact and no hold is needed. *)
        if t.config.Config.wire_modulus <> None then
          Window_guard.note_retransmission t.guard ~seq ~window:t.config.Config.window
            ~hold_for:(Config.hold_duration t.config);
        transmit t seq
      end

    and transmit t seq =
      match Ba_util.Ring_buffer.get t.buffer seq with
      | None -> invalid_arg "Sender_multi.transmit: no buffered payload"
      | Some payload ->
          t.tx (Ba_proto.Wire.make_data_e ~epoch:t.epoch ~seq:(Seqcodec.encode t.codec seq) ~payload);
          let timer =
            match Ba_util.Ring_buffer.get t.timers seq with
            | Some timer -> timer
            | None ->
                let timer =
                  Ba_sim.Timer.create t.engine ~duration:t.config.Config.rto (fun () ->
                      on_timeout t seq)
                in
                Ba_util.Ring_buffer.set t.timers seq timer;
                timer
          in
          Ba_sim.Timer.start_for timer (rto_for t seq)

    let rec pump t =
      if t.alive && (not t.syncing) && outstanding t < effective_window t then begin
        if t.ns >= Window_guard.frontier t.guard then
          (* A retransmitted copy may still be in flight; sending past its
             decode window would risk mis-reconstruction at the receiver. *)
          Window_guard.when_blocked t.guard (fun () -> pump t)
        else begin
          match Ba_proto.Source.next t.source with
          | None -> ()
          | Some payload ->
              Ba_util.Ring_buffer.set t.buffer t.ns payload;
              t.ns <- t.ns + 1;
              Ba_util.Ring_buffer.set t.sent_at (t.ns - 1) (Ba_sim.Engine.now t.engine);
              transmit t (t.ns - 1);
              pump t
        end
      end

    let is_done t =
      t.alive && (not t.syncing) && outstanding t = 0 && Ba_proto.Source.exhausted t.source

    let create engine config ~tx ~next_payload =
      Config.validate config;
      let source = Ba_proto.Source.create next_payload in
      let codec = Seqcodec.create ~window:config.Config.window ~wire_modulus:config.Config.wire_modulus in
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
      let rec t =
        lazy
          {
            config;
            codec;
            engine;
            tx;
            source;
            buffer = Ba_util.Ring_buffer.create config.Config.window;
            acked = Ba_util.Ring_buffer.create config.Config.window;
            timers = Ba_util.Ring_buffer.create config.Config.window;
            sent_at = Ba_util.Ring_buffer.create config.Config.window;
            resent = Ba_util.Ring_buffer.create config.Config.window;
            estimator;
            guard = Window_guard.create engine;
            sync_timer =
              Ba_sim.Timer.create engine ~duration:config.Config.rto (fun () ->
                  let t = Lazy.force t in
                  if t.alive && t.syncing then send_req t);
            na = 0;
            ns = 0;
            alive = true;
            epoch = 0;
            syncing = false;
            retransmissions = 0;
            corrupt_acks_dropped = 0;
            stale_epoch_dropped = 0;
            resync_rounds = 0;
            restarts = 0;
            cwnd = 1;
            ack_credit = 0;
            wclamp = None;
          }
      in
      Lazy.force t

    let stop_timer t seq =
      match Ba_util.Ring_buffer.get t.timers seq with
      | Some timer ->
          Ba_sim.Timer.stop timer;
          Ba_util.Ring_buffer.remove t.timers seq
      | None -> ()

    let forget t seq =
      Ba_util.Ring_buffer.remove t.buffer seq;
      Ba_util.Ring_buffer.remove t.sent_at seq;
      Ba_util.Ring_buffer.remove t.resent seq;
      stop_timer t seq

    let sample_rtt t seq =
      match t.estimator with
      | None -> ()
      | Some e ->
          (* Karn's rule: only first-transmission acknowledgments are
             unambiguous round-trip samples. *)
          if Ba_util.Ring_buffer.get t.resent seq = None then begin
            match Ba_util.Ring_buffer.get t.sent_at seq with
            | Some sent -> Rtt_estimator.observe e (Ba_sim.Engine.now t.engine - sent)
            | None -> ()
          end

    (* Wipe all volatile state: payload/ack/timer rings, the congestion and
       rtt estimators, the retransmission-frontier holds. [na]/[ns] are
       zeroed too (they are meaningless without the buffers); the truth about
       position lives at the receiver and comes back via POS. Stable storage
       keeps only the epoch and, implicitly, the application outbox
       ({!Ba_proto.Source} retains issued payloads for replay). *)
    let wipe_volatile t =
      Ba_util.Ring_buffer.iter (fun _ timer -> Ba_sim.Timer.stop timer) t.timers;
      Ba_util.Ring_buffer.clear t.timers;
      Ba_util.Ring_buffer.clear t.buffer;
      Ba_util.Ring_buffer.clear t.acked;
      Ba_util.Ring_buffer.clear t.sent_at;
      Ba_util.Ring_buffer.clear t.resent;
      Window_guard.clear t.guard;
      Option.iter Rtt_estimator.reset t.estimator;
      Ba_sim.Timer.stop t.sync_timer;
      t.na <- 0;
      t.ns <- 0;
      t.cwnd <- 1;
      t.ack_credit <- 0

    let crash t =
      if t.alive then begin
        t.alive <- false;
        t.syncing <- false;
        wipe_volatile t
      end

    (* Adopt the receiver-announced resume position: align [na]/[ns] there
       and rewind the outbox so [pump] replays from it. *)
    let resync_to t pos =
      Ba_proto.Source.rewind t.source ~to_:pos;
      t.na <- pos;
      t.ns <- pos;
      t.syncing <- false;
      Ba_sim.Timer.stop t.sync_timer

    let restart t =
      if not t.alive then begin
        t.alive <- true;
        t.restarts <- t.restarts + 1;
        if t.config.Config.resync_epochs then begin
          t.epoch <- t.epoch + 1;
          t.syncing <- true;
          send_req t
        end
        else begin
          (* Negative control: resume blind from zero, replaying the whole
             outbox against a receiver that may be far ahead. *)
          Ba_proto.Source.rewind t.source ~to_:0;
          pump t
        end
      end

    (* A corrupted acknowledgment is discarded outright: a mangled block
       range could cover messages the receiver never accepted, which is a
       safety violation, not just waste. Duplicated acknowledgments are
       harmless — every covered position is already guarded by the
       [na <= seq < ns && not acked] test below. With epochs on, frames from
       a dead incarnation are rejected the same way the receiver rejects
       stale data; a *higher* epoch means the receiver restarted and its POS
       tells us everything we need. *)
    let on_ack t a =
      if not t.alive then ()
      else if not (Ba_proto.Wire.ack_ok a) then
        t.corrupt_acks_dropped <- t.corrupt_acks_dropped + 1
      else begin
        let epochs = t.config.Config.resync_epochs in
        if epochs && a.Ba_proto.Wire.epoch < t.epoch then
          t.stale_epoch_dropped <- t.stale_epoch_dropped + 1
        else if epochs && a.Ba_proto.Wire.epoch > t.epoch then begin
          (* Only a restarted receiver mints a higher epoch, and it only
             sends POS until we confirm — adopt its epoch and position. *)
          match a.Ba_proto.Wire.akind with
          | Ba_proto.Wire.Sync_pos ->
              t.epoch <- a.Ba_proto.Wire.epoch;
              wipe_volatile t;
              resync_to t a.Ba_proto.Wire.lo;
              send_fin t;
              pump t
          | Ba_proto.Wire.Ack -> t.stale_epoch_dropped <- t.stale_epoch_dropped + 1
        end
        else begin
          match a.Ba_proto.Wire.akind with
          | Ba_proto.Wire.Sync_pos ->
              if t.syncing then begin
                resync_to t a.Ba_proto.Wire.lo;
                send_fin t;
                pump t
              end
              else
                (* Duplicate POS: our FIN was lost and the receiver is still
                   retrying. Re-confirm; do not move the window. *)
                send_fin t
          | Ba_proto.Wire.Ack ->
              if not t.syncing then begin
                let { Ba_proto.Wire.lo; hi; _ } = a in
                let count = Seqcodec.span t.codec ~lo ~hi in
                for k = 0 to count - 1 do
                  let wire = Seqcodec.shift t.codec lo k in
                  let seq = Seqcodec.decode_ack t.codec ~na:t.na wire in
                  if seq >= t.na && seq < t.ns && not (Ba_util.Ring_buffer.mem t.acked seq) then begin
                    sample_rtt t seq;
                    Ba_util.Ring_buffer.set t.acked seq ();
                    stop_timer t seq
                  end
                done;
                let na_before = t.na in
                while Ba_util.Ring_buffer.mem t.acked t.na do
                  Ba_util.Ring_buffer.remove t.acked t.na;
                  forget t t.na;
                  t.na <- t.na + 1
                done;
                on_progress t (t.na - na_before);
                pump t
              end
        end
      end

    let na t = t.na
    let ns t = t.ns
    let retransmissions t = t.retransmissions
    let corrupt_acks_dropped t = t.corrupt_acks_dropped
    let acked_total t = t.na

    let rto_now t = base_rto t

    let srtt t = Option.map Rtt_estimator.srtt t.estimator

    let cwnd t = t.cwnd

    (* Fabric backpressure: clamp the effective window to [n] messages
       ([n >= window] removes the clamp). Only future pumps are affected —
       already-outstanding messages finish under their own timers. *)
    let clamp_window t n =
      if n < 1 then invalid_arg "Sender_multi.clamp_window: clamp must be >= 1";
      t.wclamp <- (if n >= t.config.Config.window then None else Some n)

    let window_clamp t = t.wclamp

    let buffered_bytes t =
      let n = ref 0 in
      Ba_util.Ring_buffer.iter (fun _ p -> n := !n + String.length p) t.buffer;
      !n

    let alive t = t.alive
    let epoch t = t.epoch
    let syncing t = t.syncing
    let stale_epoch_dropped t = t.stale_epoch_dropped
    let resync_rounds t = t.resync_rounds
    let restarts t = t.restarts
  end
end

(* The reference pair wrapped as a first-class protocol. [name] matches
   the real one so whole result records compare equal. *)
module Ref_multi : Ba_proto.Protocol.S = struct
  let name = "blockack-multi"

  type sender = Ref_impl.Sender_multi.t
  type receiver = Ref_impl.Receiver.t

  let validate config = Blockack.Sender_core.validate config
  let create_sender = Ref_impl.Sender_multi.create
  let sender_on_ack = Ref_impl.Sender_multi.on_ack
  let sender_pump = Ref_impl.Sender_multi.pump
  let sender_done = Ref_impl.Sender_multi.is_done
  let sender_outstanding = Ref_impl.Sender_multi.outstanding
  let sender_retransmissions = Ref_impl.Sender_multi.retransmissions
  let create_receiver = Ref_impl.Receiver.create
  let receiver_on_data = Ref_impl.Receiver.on_data
  let ack_wire_bytes = Wire.ack_bytes_block

  let lifecycle =
    Some
      {
        Ba_proto.Protocol.sender_crash = Ref_impl.Sender_multi.crash;
        sender_restart = Ref_impl.Sender_multi.restart;
        receiver_crash = Ref_impl.Receiver.crash;
        receiver_restart = Ref_impl.Receiver.restart;
        (* The reference pair predates cross-process restore; the
           equivalence runs never exercise it. *)
        receiver_restore =
          (fun _ ~epoch:_ ~pos:_ -> invalid_arg "Ref_multi: receiver_restore not supported");
      }

  let overload =
    Some
      {
        Ba_proto.Protocol.sender_mem_bytes = Ref_impl.Sender_multi.buffered_bytes;
        receiver_mem_bytes = Ref_impl.Receiver.buffered_bytes;
        sender_clamp_window = Ref_impl.Sender_multi.clamp_window;
        receiver_pressure_dropped = Ref_impl.Receiver.pressure_dropped;
      }
end

let ref_multi : Ba_proto.Protocol.t = (module Ref_multi)

(* ------------------------------------------------------------------ *)
(* Harness-level equivalence: identical runs, whole-result equality.
   [Flow.result] folds in everything observable at the application
   boundary — delivery/duplicate/misorder counts, every wire counter,
   the raw per-payload latency samples — so record equality is a strong
   statement. The harness itself independently checks payload *content*
   against the workload (the [corrupted]/[misordered] counters). *)

let result_t =
  let pp ppf (r : Harness.result) =
    Format.fprintf ppf
      "%s completed=%b ticks=%d delivered=%d dup=%d mis=%d corr=%d data_sent=%d acks=%d retx=%d \
       resync=%d crashes=%d"
      r.protocol r.completed r.ticks r.delivered r.duplicates r.misordered r.corrupted r.data_sent
      r.acks_sent r.retransmissions r.resync_rounds r.crashes
  in
  Alcotest.testable pp ( = )

let run_both ?seed ?messages ?config ?data_loss ?ack_loss ?data_delay ?ack_delay ?data_plan
    ?ack_plan ?crash_plan name =
  let go proto =
    Harness.run proto ?seed ?messages ?config ?data_loss ?ack_loss ?data_delay ?ack_delay
      ?data_plan ?ack_plan ?crash_plan ()
  in
  check result_t name (go ref_multi) (go Blockack.Protocols.multi)

let f1_config ?(coalesce = 0) () =
  Blockack.Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~ack_coalesce:coalesce
    ~max_transit:50 ()

let test_lossless () =
  run_both ~seed:1 ~messages:200 "lossless default config";
  run_both ~seed:2 ~messages:200 ~config:(f1_config ()) "lossless modulus 32"

let test_lossy () =
  List.iter
    (fun seed ->
      run_both ~seed ~messages:200 ~config:(f1_config ()) ~data_loss:0.05 ~ack_loss:0.05
        ~data_delay:(Dist.Constant 50) ~ack_delay:(Dist.Constant 50)
        (Printf.sprintf "5pc loss seed %d" seed))
    [ 3; 4; 5 ]

let test_coalesce () =
  List.iter
    (fun seed ->
      run_both ~seed ~messages:200
        ~config:(f1_config ~coalesce:30 ())
        ~data_loss:0.05 ~ack_loss:0.05 ~data_delay:(Dist.Constant 50)
        ~ack_delay:(Dist.Constant 50)
        (Printf.sprintf "coalesced acks seed %d" seed))
    [ 3; 6 ]

let test_adaptive_dynamic () =
  let config =
    Blockack.Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~adaptive_rto:true
      ~dynamic_window:true ~max_transit:60 ()
  in
  run_both ~seed:7 ~messages:150 ~config ~data_loss:0.1 ~ack_loss:0.1
    ~data_delay:(Dist.Uniform (40, 60))
    ~ack_delay:(Dist.Uniform (40, 60))
    "adaptive rto + AIMD window, 10pc loss"

let test_fault_plans () =
  let plan = Fault_plan.make ~duplicate:0.1 ~copies:3 ~corrupt:0.1 () in
  run_both ~seed:8 ~messages:150 ~config:(f1_config ()) ~data_loss:0.05 ~ack_loss:0.05
    ~data_delay:(Dist.Constant 50) ~ack_delay:(Dist.Constant 50) ~data_plan:plan ~ack_plan:plan
    "duplication + corruption plan";
  let bursty =
    Fault_plan.make
      ~bursty:
        { Fault_plan.p_enter_bad = 0.02; p_exit_bad = 0.3; loss_good = 0.0; loss_bad = 0.6 }
      ()
  in
  run_both ~seed:9 ~messages:150 ~config:(f1_config ()) ~data_delay:(Dist.Constant 50)
    ~ack_delay:(Dist.Constant 50) ~data_plan:bursty "Gilbert-Elliott bursts";
  let spiky =
    Blockack.Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:120 ()
  in
  let spikes = Fault_plan.make ~delay_spike:(0.2, 40) () in
  run_both ~seed:10 ~messages:150 ~config:spiky ~data_loss:0.03 ~ack_loss:0.03
    ~data_delay:(Dist.Constant 50) ~ack_delay:(Dist.Constant 50) ~data_plan:spikes
    ~ack_plan:spikes "delay spikes (reordering)"

let test_crashes () =
  let plan =
    Crash_plan.make
      [
        { Crash_plan.at = 500; endpoint = Crash_plan.Sender_end; down_for = 400 };
        { Crash_plan.at = 2500; endpoint = Crash_plan.Receiver_end; down_for = 600 };
      ]
  in
  run_both ~seed:11 ~messages:120 ~config:(f1_config ()) ~data_loss:0.05 ~ack_loss:0.05
    ~data_delay:(Dist.Constant 50) ~ack_delay:(Dist.Constant 50) ~crash_plan:plan
    "sender and receiver crash-restart"

(* Randomised sweep: any in-validity-envelope configuration and fault
   plan must leave the two implementations indistinguishable. *)

type scen = {
  seed : int;
  window : int;
  modc : int;  (* 0 unbounded, 1 the minimum legal modulus 2w, 2 a loose 4w *)
  coalesce : int;
  dloss : float;
  aloss : float;
  dup : float;
  corr : float;
  adaptive : bool;
  dynamic : bool;
}

let scen_print s =
  Printf.sprintf
    "seed=%d window=%d modc=%d coalesce=%d dloss=%.3f aloss=%.3f dup=%.3f corr=%.3f adaptive=%b \
     dynamic=%b"
    s.seed s.window s.modc s.coalesce s.dloss s.aloss s.dup s.corr s.adaptive s.dynamic

let scen_gen =
  let open QCheck.Gen in
  map
    (fun ((seed, window, modc, coalesce), ((dloss, aloss), (dup, corr)), (adaptive, dynamic)) ->
      { seed; window; modc; coalesce; dloss; aloss; dup; corr; adaptive; dynamic })
    (triple
       (quad (int_bound 9999) (int_range 2 24) (int_bound 2) (int_bound 90))
       (pair
          (pair (float_bound_inclusive 0.25) (float_bound_inclusive 0.25))
          (pair (float_bound_inclusive 0.15) (float_bound_inclusive 0.15)))
       (pair bool bool))

let scen_arbitrary = QCheck.make ~print:scen_print scen_gen

let prop_equivalent s =
  let wire_modulus =
    match s.modc with 0 -> None | 1 -> Some (2 * s.window) | _ -> Some (4 * s.window)
  in
  let config =
    Blockack.Config.make ~window:s.window ~rto:300 ~wire_modulus ~ack_coalesce:s.coalesce
      ~adaptive_rto:s.adaptive ~dynamic_window:s.dynamic ~max_transit:60 ()
  in
  let plan = Fault_plan.make ~duplicate:s.dup ~corrupt:s.corr () in
  let go proto =
    Harness.run proto ~seed:s.seed ~messages:60 ~config ~data_loss:s.dloss ~ack_loss:s.aloss
      ~data_delay:(Dist.Uniform (40, 60))
      ~ack_delay:(Dist.Uniform (40, 60))
      ~data_plan:plan ~ack_plan:plan ()
  in
  let fresh = go Blockack.Protocols.multi in
  let old = go ref_multi in
  old = fresh
  || QCheck.Test.fail_reportf
       "@[<v>seed %d, plan %a both ways; 60 messages, rto 300, delay Uniform (40, 60) each way@,\
        old: %a@,new: %a@]"
       s.seed Fault_plan.pp plan Harness.pp_result old Harness.pp_result fresh

let equivalence_property =
  QCheck.Test.make ~count:30 ~name:"random fault plans: old and new data paths indistinguishable"
    scen_arbitrary prop_equivalent

(* ------------------------------------------------------------------ *)
(* Wire-level trace and payload equivalence: manual wiring so every
   frame either side emits — and every in-order delivery — is recorded
   verbatim and compared as a rendered time-sequence diagram. *)

let trace_run proto ~seed ~messages ~config ~loss =
  let (module P : Ba_proto.Protocol.S) = proto in
  let engine = Engine.create ~seed () in
  let tracer = Ba_trace.Tracer.create ~capacity:200_000 () in
  let record side pp v =
    Ba_trace.Tracer.record tracer ~time:(Engine.now engine) ~side (Format.asprintf "%a" pp v)
  in
  let delivered = ref [] in
  let acks = ref 0 in
  let recv = ref None in
  let send = ref None in
  let dl =
    Link.create engine ~loss ~delay:(Dist.Constant 50) ~corrupt:Wire.corrupt_data
      ~release:Wire.release_data
      ~deliver:(fun d ->
        record Ba_trace.Tracer.Receiver Wire.pp_data d;
        match !recv with Some r -> P.receiver_on_data r d | None -> ())
      ()
  in
  let al =
    Link.create engine ~loss ~delay:(Dist.Constant 50) ~corrupt:Wire.corrupt_ack
      ~release:Wire.release_ack
      ~deliver:(fun a ->
        record Ba_trace.Tracer.Sender Wire.pp_ack a;
        match !send with Some s -> P.sender_on_ack s a | None -> ())
      ()
  in
  let produced = ref 0 in
  let s =
    P.create_sender engine config
      ~tx:(fun d ->
        record Ba_trace.Tracer.Sender Wire.pp_data d;
        Link.send dl d)
      ~next_payload:(fun () ->
        if !produced >= messages then raise Ba_proto.Protocol.Exhausted
        else begin
          let p = Ba_proto.Workload.payload ~seed ~size:32 !produced in
          incr produced;
          p
        end)
  in
  let r =
    P.create_receiver engine config
      ~tx:(fun a ->
        incr acks;
        record Ba_trace.Tracer.Receiver Wire.pp_ack a;
        Link.send al a)
      ~deliver:(fun p -> delivered := p :: !delivered)
  in
  recv := Some r;
  send := Some s;
  P.sender_pump s;
  Engine.run ~until:10_000_000 engine;
  (Ba_trace.Tracer.render tracer, List.rev !delivered, !acks, P.sender_done s)

let test_trace_equivalence () =
  List.iter
    (fun (seed, coalesce, loss) ->
      let config = f1_config ~coalesce () in
      let trace_old, payloads_old, acks_old, done_old =
        trace_run ref_multi ~seed ~messages:120 ~config ~loss
      in
      let trace_new, payloads_new, acks_new, done_new =
        trace_run Blockack.Protocols.multi ~seed ~messages:120 ~config ~loss
      in
      let tag fmt = Printf.sprintf fmt seed coalesce in
      check Alcotest.bool (tag "old completed (seed %d c%d)") true done_old;
      check Alcotest.bool (tag "new completed (seed %d c%d)") true done_new;
      check (Alcotest.list Alcotest.string) (tag "delivered payloads (seed %d c%d)") payloads_old
        payloads_new;
      check Alcotest.int (tag "acks sent (seed %d c%d)") acks_old acks_new;
      check Alcotest.string (tag "wire trace (seed %d c%d)") trace_old trace_new)
    [ (21, 0, 0.05); (22, 30, 0.05); (23, 0, 0.0); (24, 20, 0.15) ]

let () =
  Alcotest.run "datapath-equivalence"
    [
      ( "harness",
        [
          Alcotest.test_case "lossless" `Quick test_lossless;
          Alcotest.test_case "5pc loss" `Quick test_lossy;
          Alcotest.test_case "coalesced acks" `Quick test_coalesce;
          Alcotest.test_case "adaptive+dynamic" `Quick test_adaptive_dynamic;
          Alcotest.test_case "fault plans" `Quick test_fault_plans;
          Alcotest.test_case "crash-restart" `Quick test_crashes;
          qcheck equivalence_property;
        ] );
      ("wire-trace", [ Alcotest.test_case "trace+payload equality" `Quick test_trace_equivalence ]);
    ]
