module Wire = Ba_proto.Wire
module Config = Ba_proto.Proto_config

type sender = {
  config : Config.t;
  engine : Ba_sim.Engine.t;
  tx : Wire.data -> unit;
  source : Ba_proto.Source.t;  (* the outbox: payload of [seq] at position [seq] *)
  acked : unit Ba_util.Ring_buffer.t;
  timers : Ba_sim.Engine.slot option array;  (* per [seq mod window], built on first use *)
  timer_seq : int array;  (* the seq each timer was last armed for *)
  slot_free_at : int array;  (* per wire number: earliest next use *)
  mutable pump_retry_armed : bool;
  mutable retransmissions : int;
}

(* The outbox holds exactly the outstanding range [na, ns): the sender
   releases below [na] on every ack and never rewinds. *)
let na s = Ba_proto.Source.base s.source
let ns s = Ba_proto.Source.issued s.source

let slot_count config =
  match config.Config.wire_modulus with Some n -> n | None -> 0

let slot_ready s seq =
  match s.config.Config.wire_modulus with
  | None -> true
  | Some n -> Ba_sim.Engine.now s.engine >= s.slot_free_at.(Ba_util.Modseq.wrap ~n seq)

let note_slot_use s seq =
  match s.config.Config.wire_modulus with
  | None -> ()
  | Some n ->
      s.slot_free_at.(Ba_util.Modseq.wrap ~n seq) <-
        Ba_sim.Engine.now s.engine + s.config.Config.stenning_gap

(* The real-time constraint: refuse to transmit until the wire number's
   quarantine has elapsed; the caller reschedules. *)
let try_transmit s seq =
  if slot_ready s seq then begin
    note_slot_use s seq;
    s.tx
      (Wire.make_data ~seq:(Blockack.Seqcodec.encode s.config.Config.wire_modulus seq)
         ~payload:(Ba_proto.Source.get s.source seq));
    true
  end
  else false

let outstanding s = ns s - na s

(* A timer per window slot, not per message: an engine slot lives as long
   as its engine, so one per message would grow with the transfer. The
   slot's previous message was slid over, and its timer stopped, before
   [seq] could be sent. *)
let rec arm_timer s seq =
  let k = seq mod Array.length s.timers in
  s.timer_seq.(k) <- seq;
  let slot =
    match s.timers.(k) with
    | Some slot -> slot
    | None ->
        let slot = Ba_sim.Engine.slot_create s.engine (fun () -> resend s s.timer_seq.(k)) in
        s.timers.(k) <- Some slot;
        slot
  in
  Ba_sim.Engine.slot_arm s.engine slot ~delay:s.config.Config.rto

and resend s seq =
  if seq >= na s && seq < ns s && not (Ba_util.Ring_buffer.mem s.acked seq) then begin
    if try_transmit s seq then begin
      s.retransmissions <- s.retransmissions + 1;
      arm_timer s seq
    end
    else begin
      (* Slot quarantined: retry when it frees. *)
      match s.config.Config.wire_modulus with
      | None -> ()
      | Some n ->
          let at = s.slot_free_at.(Ba_util.Modseq.wrap ~n seq) in
          Ba_sim.Engine.schedule_at s.engine ~at (fun () -> resend s seq)
    end
  end

let rec pump s =
  if outstanding s < s.config.Config.window then begin
    if slot_ready s (ns s) then begin
      if Ba_proto.Source.next s.source then begin
        ignore (try_transmit s (ns s - 1));
        arm_timer s (ns s - 1);
        pump s
      end
    end
    else if not s.pump_retry_armed then begin
      match s.config.Config.wire_modulus with
      | None -> ()
      | Some n ->
          let at = s.slot_free_at.(Ba_util.Modseq.wrap ~n (ns s)) in
          s.pump_retry_armed <- true;
          Ba_sim.Engine.schedule_at s.engine ~at (fun () ->
              s.pump_retry_armed <- false;
              pump s)
    end
  end

let create_sender engine config ~tx ~next_payload =
  Selective_repeat.validate config;
  let source = Ba_proto.Source.create next_payload in
  {
    config;
    engine;
    tx;
    source;
    acked = Ba_util.Ring_buffer.create ~limit:config.Config.window ();
    timers = Array.make config.Config.window None;
    timer_seq = Array.make config.Config.window (-1);
    slot_free_at = Array.make (max 1 (slot_count config)) 0;
    pump_retry_armed = false;
    retransmissions = 0;
  }

let stop_timer s seq =
  let k = seq mod Array.length s.timers in
  match s.timers.(k) with
  | Some slot when s.timer_seq.(k) = seq -> Ba_sim.Engine.slot_cancel s.engine slot
  | Some _ | None -> ()

(* A damaged ack (checksum mismatch) or a wire number [encode] cannot
   produce is dropped, as the block-ack sender drops both. *)
let sender_on_ack s ({ Wire.lo; hi = _; _ } as a) =
  let codec = s.config.Config.wire_modulus in
  if Wire.ack_ok a && Blockack.Seqcodec.is_wire codec lo then begin
    let seq = Blockack.Seqcodec.decode_ack codec ~na:(na s) lo in
    if seq >= na s && seq < ns s then begin
      Ba_util.Ring_buffer.set s.acked ~lo:(na s) seq ();
      stop_timer s seq
    end;
    while Ba_util.Ring_buffer.mem s.acked (na s) do
      Ba_util.Ring_buffer.remove s.acked (na s);
      stop_timer s (na s);
      Ba_proto.Source.release s.source ~below:(na s + 1)
    done;
    pump s
  end

let protocol : Ba_proto.Protocol.t =
  (module struct
    let name = "stenning"

    type nonrec sender = sender
    type receiver = Selective_repeat.receiver

    let validate = Selective_repeat.validate
    let create_sender = create_sender

    let create_receiver engine config ~tx ~deliver =
      Selective_repeat.create_receiver engine config ~tx ~deliver

    let sender_on_ack = sender_on_ack
    let receiver_on_data = Selective_repeat.receiver_on_data
    let sender_pump = pump
    let sender_done s = outstanding s = 0 && Ba_proto.Source.exhausted s.source
    let sender_outstanding = outstanding
    let sender_retransmissions s = s.retransmissions
    let ack_wire_bytes = Wire.ack_bytes_single
    let lifecycle = None
    let overload = None
  end)
