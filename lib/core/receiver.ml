(* The out-of-order reassembly buffer is one {!Ba_util.Ring_buffer},
   keyed by sequence number with the window as its limit. It is built
   when a frame is first buffered and sized to what arrives, not to the
   window: buffered numbers live in [nr, nr + capacity), so every
   [set] passes [nr] as the window's low edge. An in-order stream takes
   the fast path in [on_data] and never buffers. The sequence-number
   codec is the config's wire modulus ({!Seqcodec}), read from [config]
   at each use rather than kept in a field. *)

module Ring_buffer = Ba_util.Ring_buffer

type t = {
  engine : Ba_sim.Engine.t;
  config : Config.t;
  tx : Ba_proto.Wire.ack -> unit;
  deliver : string -> unit;
  (* Built on first use (see [buffer], [ack_slot] and [sync_slot]
     below): a flow that never buffers, never coalesces and never
     restarts never needs them. *)
  mutable buf : string Ring_buffer.t option;
  mutable ack_slot : Ba_sim.Engine.slot option;
  mutable sync_slot : Ba_sim.Engine.slot option;  (* POS retry while awaiting the sender's FIN *)
  mutable nr : int;
  mutable vr : int;
  mutable alive : bool;
  mutable epoch : int;  (* incarnation; stable storage, like [nr] *)
  mutable syncing : bool;  (* restarted; POS sent, FIN (or fresh data) pending *)
  mutable dup_acks_sent : int;
  mutable corrupt_dropped : int;
  mutable pressure_dropped : int;  (* fresh in-window frames refused for buffer-full *)
  mutable pressure_evicted : int;  (* buffered frames evicted by Drop_furthest *)
}

let codec t = t.config.Config.wire_modulus

let buffer t =
  match t.buf with
  | Some b -> b
  | None ->
      let b = Ring_buffer.create ~limit:t.config.Config.window "" in
      t.buf <- Some b;
      b

let nr t = t.nr
let buffered t = match t.buf with Some b -> Ring_buffer.occupancy b | None -> 0
let capacity t = match t.buf with Some b -> Ring_buffer.capacity b | None -> 0

let send_ack t ~lo ~hi =
  t.tx
    (Ba_proto.Wire.make_ack_e ~epoch:t.epoch ~lo:(Seqcodec.encode (codec t) lo)
       ~hi:(Seqcodec.encode (codec t) hi))

(* Handshake message 2 (POS): "my stable delivered count is [nr]; resume
   there". Sent in reply to a REQ, and spontaneously (with retries) after
   our own restart — the receiver is the position authority, so its
   restart skips REQ. *)
let rec send_pos t =
  t.tx (Ba_proto.Wire.make_sync_pos ~epoch:t.epoch ~pos:t.nr);
  if t.syncing then Ba_sim.Engine.slot_arm t.engine (sync_slot t) ~delay:t.config.Config.rto

and sync_slot t =
  match t.sync_slot with
  | Some slot -> slot
  | None ->
      let slot =
        Ba_sim.Engine.slot_create t.engine (fun () -> if t.alive && t.syncing then send_pos t)
      in
      t.sync_slot <- Some slot;
      slot

(* A match, not [Option.iter] over a partial application: [flush] runs
   per acknowledgment and must not allocate a closure. *)
let cancel t = function Some slot -> Ba_sim.Engine.slot_cancel t.engine slot | None -> ()

(* Action 5: acknowledge the run [nr, vr) in one block and hand its
   payloads to the application in order. *)
let flush t =
  cancel t t.ack_slot;
  if t.nr < t.vr then begin
    send_ack t ~lo:t.nr ~hi:(t.vr - 1);
    (* A run that reached past [nr] was buffered, so [buf] is built. *)
    let b = buffer t in
    while t.nr < t.vr do
      let payload =
        match Ring_buffer.find b t.nr with
        | p -> p
        | exception Not_found -> invalid_arg "Receiver.flush: hole in accepted run"
      in
      Ring_buffer.remove b t.nr;
      t.deliver payload;
      t.nr <- t.nr + 1
    done
  end

let ack_slot t =
  match t.ack_slot with
  | Some slot -> slot
  | None ->
      let slot = Ba_sim.Engine.slot_create t.engine (fun () -> flush t) in
      t.ack_slot <- Some slot;
      slot

let create engine config ~tx ~deliver =
  Config.validate config;
  let (_ : Seqcodec.t) =
    Seqcodec.create ~window:config.Config.window ~wire_modulus:config.Config.wire_modulus
  in
  {
    engine;
    config;
    tx;
    deliver;
    buf = None;
    ack_slot = None;
    sync_slot = None;
    nr = 0;
    vr = 0;
    alive = true;
    epoch = 0;
    syncing = false;
    dup_acks_sent = 0;
    corrupt_dropped = 0;
    pressure_dropped = 0;
    pressure_evicted = 0;
  }

(* The sender restarted into a later incarnation (we learn it from any
   frame carrying a higher epoch): adopt the epoch and discard the
   out-of-order buffer — the new incarnation will resend everything from
   the position we announce, and frames of the old one are now stale. *)
let adopt_epoch t e =
  t.epoch <- e;
  t.vr <- t.nr;
  Option.iter Ring_buffer.clear t.buf;
  cancel t t.ack_slot

let stop_syncing t =
  if t.syncing then begin
    t.syncing <- false;
    cancel t t.sync_slot
  end

(* Budget admission (Jain, DEC-TR-342). Only the out-of-order slots
   beyond the contiguous run count against [rx_budget]: slots in
   [nr, vr) are committed — [flush] will acknowledge and deliver them —
   and the run-extending frame [v = vr] is always admitted, which is
   what keeps drop-new from livelocking on a full buffer. A refused or
   evicted frame was never acknowledged, so the sender's per-message
   timer retransmits it: a pressure drop is behaviorally a channel
   loss, and the block-ack ranges stay sound. *)
let admit t b v payload =
  let over_budget =
    match t.config.Config.rx_budget with
    | None -> false
    | Some budget -> v > t.vr && Ring_buffer.occupancy b - (t.vr - t.nr) >= budget
  in
  if not over_budget then Ring_buffer.set b ~lo:t.nr v payload
  else
    match t.config.Config.drop_policy with
    | Config.Drop_new -> t.pressure_dropped <- t.pressure_dropped + 1
    | Config.Drop_furthest ->
        (* The highest buffered number. Evicting needs one above [v],
           and [v > vr], so a highest number at or below [vr] drops [v]
           just as no candidate would. *)
        let furthest = Ring_buffer.fold (fun s _ m -> if s > m then s else m) b (-1) in
        if furthest > v then begin
          Ring_buffer.remove b furthest;
          t.pressure_evicted <- t.pressure_evicted + 1;
          Ring_buffer.set b ~lo:t.nr v payload
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
  else if not (Ba_proto.Wire.data_ok d && Seqcodec.is_wire (codec t) d.Ba_proto.Wire.seq) then
    t.corrupt_dropped <- t.corrupt_dropped + 1
  else begin
    let epochs = t.config.Config.resync_epochs in
    if epochs && d.Ba_proto.Wire.epoch < t.epoch then ()
    else begin
      if epochs && d.Ba_proto.Wire.epoch > t.epoch then adopt_epoch t d.Ba_proto.Wire.epoch;
      match d.Ba_proto.Wire.dkind with
      | Ba_proto.Wire.Sync_req -> if epochs then send_pos t
      | Ba_proto.Wire.Sync_fin -> stop_syncing t
      | Ba_proto.Wire.Msg ->
          (* Current-epoch data implies the sender knows our position:
             an implicit FIN. *)
          stop_syncing t;
          let seq = d.Ba_proto.Wire.seq in
          let payload = d.Ba_proto.Wire.payload in
          let v = Seqcodec.decode_data (codec t) ~window:t.config.Config.window ~nr:t.nr seq in
          if v < t.nr then begin
            (* Already accepted: its acknowledgment must have been lost; re-ack. *)
            t.dup_acks_sent <- t.dup_acks_sent + 1;
            send_ack t ~lo:v ~hi:v
          end
          else if
            (* In-order fast path: the frame lands exactly on the closed
               run's frontier with nothing coalescing and nothing
               buffered beyond it. Ack it, deliver it, advance — the
               slow path below would write the payload into the buffer
               only to pull it straight back out, and would stop the
               (never-armed) ack timer. Equivalent, observably identical
               ack/delivery sequence. *)
            v = t.vr && v = t.nr
            && t.config.Config.ack_coalesce = 0
            && (match t.buf with Some b -> not (Ring_buffer.mem b (v + 1)) | None -> true)
          then begin
            send_ack t ~lo:v ~hi:v;
            t.deliver payload;
            t.nr <- v + 1;
            t.vr <- t.nr
          end
          else if v < t.nr + t.config.Config.window then begin
            (* Every frame that gets here is buffered, unless it already
               is or the budget refuses it, which needs a full buffer. *)
            let b = buffer t in
            if not (Ring_buffer.mem b v) then admit t b v payload;
            while Ring_buffer.mem b t.vr do
              t.vr <- t.vr + 1
            done;
            if t.nr < t.vr then begin
              if t.config.Config.ack_coalesce = 0 then flush t
              else begin
                let slot = ack_slot t in
                if not (Ba_sim.Engine.slot_armed t.engine slot) then
                  Ba_sim.Engine.slot_arm t.engine slot ~delay:t.config.Config.ack_coalesce
              end
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
    cancel t t.ack_slot;
    cancel t t.sync_slot;
    Option.iter Ring_buffer.clear t.buf;
    t.vr <- t.nr
  end

let restart t =
  if not t.alive then begin
    t.alive <- true;
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

(* A new *process* incarnation: unlike [restart] (same process, volatile
   state wiped in place), the caller rebuilt this receiver from nothing
   and now replays what its stable storage remembered — the incarnation
   epoch and the delivered count. The caller passes the *new* epoch
   (persisted + 1, bumped exactly as [restart] would); announcing POS
   with retries then runs the same handshake a within-process restart
   does, so the sender side cannot tell the difference. *)
let restore t ~epoch ~pos =
  if not t.config.Config.resync_epochs then
    invalid_arg "Receiver.restore: requires resync_epochs";
  if epoch < 1 then invalid_arg "Receiver.restore: epoch must be >= 1";
  if pos < 0 then invalid_arg "Receiver.restore: negative position";
  if (not t.alive) || t.nr <> 0 || t.vr <> 0 || buffered t <> 0 || t.epoch <> 0 then
    invalid_arg "Receiver.restore: receiver already has state";
  t.epoch <- epoch;
  t.nr <- pos;
  t.vr <- pos;
  t.syncing <- true;
  send_pos t

let buffered_bytes t =
  match t.buf with
  | Some b -> Ring_buffer.fold (fun _ p n -> n + String.length p) b 0
  | None -> 0

let pressure_dropped t = t.pressure_dropped
let pressure_evicted t = t.pressure_evicted
let dup_acks_sent t = t.dup_acks_sent
let corrupt_dropped t = t.corrupt_dropped
let syncing t = t.syncing
