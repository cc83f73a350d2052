module Wire = Ba_proto.Wire
module Config = Ba_proto.Proto_config

type receiver = {
  config : Config.t;
  tx : Wire.ack -> unit;
  deliver : string -> unit;
  buffer : string Ba_util.Ring_buffer.t;
  mutable nr : int;
}

(* Both halves decode over the window, so both need the block-ack
   modulus of at least 2w. *)
let validate config =
  Config.validate config;
  ignore
    (Blockack.Seqcodec.create ~window:config.Config.window ~wire_modulus:config.Config.wire_modulus
      : Blockack.Seqcodec.t)

let create_receiver _engine config ~tx ~deliver =
  validate config;
  {
    config;
    tx;
    deliver;
    buffer = Ba_util.Ring_buffer.create ~limit:config.Config.window "";
    nr = 0;
  }

(* Every reception is acknowledged with a singleton (v, v), then in-order
   payloads are drained to the application. Corrupt frames are discarded
   up front, like the block-ack receiver: selective repeat is one of the
   "robust" baselines in the chaos campaign. *)
let receiver_on_data r d =
  let codec = r.config.Config.wire_modulus in
  if not (Wire.data_ok d && Blockack.Seqcodec.is_wire codec d.Wire.seq) then ()
  else begin
  let { Wire.seq; payload; _ } = d in
  let window = r.config.Config.window in
  let v = Blockack.Seqcodec.decode_data codec ~window ~nr:r.nr seq in
  let wire = Blockack.Seqcodec.encode codec v in
  if v < r.nr then r.tx (Wire.make_ack ~lo:wire ~hi:wire)
  else if v < r.nr + window then begin
    if not (Ba_util.Ring_buffer.mem r.buffer v) then
      Ba_util.Ring_buffer.set r.buffer ~lo:r.nr v payload;
    r.tx (Wire.make_ack ~lo:wire ~hi:wire);
    while Ba_util.Ring_buffer.mem r.buffer r.nr do
      let p = Ba_util.Ring_buffer.find r.buffer r.nr in
      Ba_util.Ring_buffer.remove r.buffer r.nr;
      r.deliver p;
      r.nr <- r.nr + 1
    done
  end
  end

let protocol : Ba_proto.Protocol.t =
  (module struct
    let name = "selective-repeat"

    type sender = Blockack.Sender_multi.t
    type nonrec receiver = receiver

    let validate = validate
    let create_sender engine config ~tx ~next_payload =
      Blockack.Sender_multi.create engine config ~tx ~next_payload
    let create_receiver = create_receiver
    let sender_on_ack = Blockack.Sender_multi.on_ack
    let receiver_on_data = receiver_on_data
    let sender_pump = Blockack.Sender_multi.pump
    let sender_done = Blockack.Sender_multi.is_done
    let sender_outstanding = Blockack.Sender_multi.outstanding
    let sender_retransmissions = Blockack.Sender_multi.retransmissions
    let ack_wire_bytes = Wire.ack_bytes_single
    let lifecycle = None

    (* The sender is [Sender_multi], but the baseline stays outside the
       fabric's memory accounting and clamp, as it always has. *)
    let overload = None
  end)
