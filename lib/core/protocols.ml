module Common_receiver = struct
  type receiver = Receiver.t

  let create_receiver engine config ~tx ~deliver = Receiver.create engine config ~tx ~deliver
  let receiver_on_data = Receiver.on_data
  let ack_wire_bytes = Ba_proto.Wire.ack_bytes_block
end

(* Both block-ack senders share the receiver half of each capability. *)
let lifecycle ~crash ~restart =
  Some
    {
      Ba_proto.Protocol.sender_crash = crash;
      sender_restart = restart;
      receiver_crash = Receiver.crash;
      receiver_restart = Receiver.restart;
      receiver_restore = Receiver.restore;
    }

let overload ~mem_bytes ~clamp =
  Some
    {
      Ba_proto.Protocol.sender_mem_bytes = mem_bytes;
      receiver_mem_bytes = Receiver.buffered_bytes;
      sender_clamp_window = clamp;
      receiver_pressure_dropped = Receiver.pressure_dropped;
    }

module Simple : Ba_proto.Protocol.S = struct
  let name = "blockack-simple"

  type sender = Sender.t

  include Common_receiver

  let validate config = Sender_core.validate config

  let create_sender = Sender.create
  let sender_on_ack = Sender.on_ack
  let sender_pump = Sender.pump
  let sender_done = Sender.is_done
  let sender_outstanding = Sender.outstanding
  let sender_retransmissions = Sender.retransmissions

  let lifecycle = lifecycle ~crash:Sender.crash ~restart:Sender.restart

  let overload = overload ~mem_bytes:Sender.buffered_bytes ~clamp:Sender.clamp_window
end

module Multi :
  Ba_proto.Protocol.S with type sender = Sender_multi.t and type receiver = Receiver.t = struct
  let name = "blockack-multi"

  type sender = Sender_multi.t

  include Common_receiver

  let validate config = Sender_core.validate config

  let create_sender engine config ~tx ~next_payload =
    Sender_multi.create engine config ~tx ~next_payload
  let sender_on_ack = Sender_multi.on_ack
  let sender_pump = Sender_multi.pump
  let sender_done = Sender_multi.is_done
  let sender_outstanding = Sender_multi.outstanding
  let sender_retransmissions = Sender_multi.retransmissions

  let lifecycle = lifecycle ~crash:Sender_multi.crash ~restart:Sender_multi.restart

  let overload = overload ~mem_bytes:Sender_multi.buffered_bytes ~clamp:Sender_multi.clamp_window
end

let simple : Ba_proto.Protocol.t = (module Simple)
let multi : Ba_proto.Protocol.t = (module Multi)

let reuse ?(lead_factor = 2) () : Ba_proto.Protocol.t =
  if lead_factor < 1 then invalid_arg "Protocols.reuse: lead_factor must be >= 1";
  (module struct
    include Multi

    let name = Printf.sprintf "blockack-reuse(x%d)" lead_factor
    let lead config = lead_factor * config.Ba_proto.Proto_config.window
    let validate config = Sender_core.validate ~lead:(lead config) config

    let create_sender engine config ~tx ~next_payload =
      Sender_multi.create ~lead:(lead config) engine config ~tx ~next_payload

    (* The receiver must accept (and buffer) the whole flight band, so it
       runs with the widened window. *)
    let create_receiver engine config ~tx ~deliver =
      Receiver.create engine { config with Ba_proto.Proto_config.window = lead config } ~tx
        ~deliver

    let sender_outstanding = Sender_multi.unacked

    (* Crash–restart with a lead band has not been model-checked. *)
    let lifecycle = None
  end)
