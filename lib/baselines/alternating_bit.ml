module Wire = Ba_proto.Wire
module Config = Ba_proto.Proto_config

type sender = {
  config : Config.t;
  engine : Ba_sim.Engine.t;
  tx : Wire.data -> unit;
  source : Ba_proto.Source.t;
      (* its one held position is in flight, awaiting its ack; the
         parity of its [base] is the bit *)
  mutable timer : Ba_sim.Engine.slot;  (* [Engine.no_slot] until [create_sender] sets it *)
  mutable retransmissions : int;
}

type receiver = {
  r_tx : Wire.ack -> unit;
  r_deliver : string -> unit;
  mutable expected : int;
}

let in_flight s = Ba_proto.Source.base s.source < Ba_proto.Source.issued s.source
let bit s = Ba_proto.Source.base s.source land 1

let transmit s =
  let payload = Ba_proto.Source.get s.source (Ba_proto.Source.base s.source) in
  s.tx (Wire.make_data ~seq:(bit s) ~payload);
  Ba_sim.Engine.slot_arm s.engine s.timer ~delay:s.config.Config.rto

let pump s =
  if (not (in_flight s)) && Ba_proto.Source.next s.source then transmit s

let on_timeout s =
  if in_flight s then begin
    s.retransmissions <- s.retransmissions + 1;
    transmit s
  end

let create_sender engine config ~tx ~next_payload =
  Config.validate config;
  let source = Ba_proto.Source.create next_payload in
  let s = { config; engine; tx; source; timer = Ba_sim.Engine.no_slot; retransmissions = 0 } in
  (* The timer's closure points at the sender itself, not at a lazy
     knot, so what a sender reaches does not depend on whether a
     collection has short-circuited a forwarding block yet. *)
  s.timer <- Ba_sim.Engine.slot_create engine (fun () -> on_timeout s);
  s

let sender_on_ack s { Wire.lo; hi = _; _ } =
  if in_flight s && lo = bit s then begin
    Ba_proto.Source.release s.source ~below:(Ba_proto.Source.issued s.source);
    Ba_sim.Engine.slot_cancel s.engine s.timer;
    pump s
  end

let create_receiver _engine config ~tx ~deliver =
  Config.validate config;
  { r_tx = tx; r_deliver = deliver; expected = 0 }

let receiver_on_data r { Wire.seq; payload; _ } =
  if seq = r.expected then begin
    r.r_deliver payload;
    r.expected <- 1 - r.expected
  end;
  (* Ack the bit we saw, whether fresh or duplicate. *)
  r.r_tx (Wire.make_ack ~lo:seq ~hi:seq)

let protocol : Ba_proto.Protocol.t =
  (module struct
    let name = "alternating-bit"

    type nonrec sender = sender
    type nonrec receiver = receiver

    let validate = Config.validate
    let create_sender = create_sender
    let create_receiver = create_receiver
    let sender_on_ack = sender_on_ack
    let receiver_on_data = receiver_on_data
    let sender_pump = pump
    let sender_done s = (not (in_flight s)) && Ba_proto.Source.exhausted s.source
    let sender_outstanding s = if in_flight s then 1 else 0
    let sender_retransmissions s = s.retransmissions
    let ack_wire_bytes = Wire.ack_bytes_single
    let lifecycle = None
    let overload = None
  end)
