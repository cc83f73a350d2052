type stats = {
  submitted : int;
  delivered : int;
  in_flight : int;
  data_sent : int;
  data_dropped : int;
  acks_sent : int;
  retransmissions : int;
  ticks : int;
}

type t = {
  engine : Ba_sim.Engine.t;
  queue : string Queue.t;
  mutable submitted : int;
  delivered : int ref;
  acks_sent : int ref;
  sender : Sender_multi.t;
  data_link : Ba_proto.Wire.data Ba_channel.Link.t;
  ack_link : Ba_proto.Wire.ack Ba_channel.Link.t;
  receiver : Receiver.t;
}

let default_config =
  Config.make ~wire_modulus:(Some (2 * Config.default.Config.window)) ()

let create ?(seed = 42) ?(config = default_config) ?(data_loss = 0.) ?(ack_loss = 0.)
    ?(data_delay = Ba_channel.Dist.Uniform (40, 60))
    ?(ack_delay = Ba_channel.Dist.Uniform (40, 60)) ~on_receive () =
  let engine = Ba_sim.Engine.create ~seed () in
  let queue = Queue.create () in
  let delivered = ref 0 and acks_sent = ref 0 in
  let receiver_cell = ref None and sender_cell = ref None in
  let data_link =
    Ba_channel.Link.create engine ~loss:data_loss ~delay:data_delay
      ~deliver:(fun d ->
        match !receiver_cell with Some r -> Receiver.on_data r d | None -> ())
      ()
  in
  let ack_link =
    Ba_channel.Link.create engine ~loss:ack_loss ~delay:ack_delay
      ~deliver:(fun a ->
        match !sender_cell with Some s -> Sender_multi.on_ack s a | None -> ())
      ()
  in
  let sender =
    Sender_multi.create engine config ~tx:(Ba_channel.Link.send data_link)
      ~next_payload:(fun () -> Queue.take_opt queue)
  in
  sender_cell := Some sender;
  let receiver =
    Receiver.create engine config
      ~tx:(fun a ->
        if a.Ba_proto.Wire.akind = Ba_proto.Wire.Ack then incr acks_sent;
        Ba_channel.Link.send ack_link a)
      ~deliver:(fun msg ->
        incr delivered;
        on_receive msg)
  in
  receiver_cell := Some receiver;
  { engine; queue; submitted = 0; delivered; acks_sent; sender; data_link; ack_link; receiver }

let send t msg =
  t.submitted <- t.submitted + 1;
  Queue.add msg t.queue;
  Sender_multi.pump t.sender

let idle t =
  !(t.delivered) = t.submitted && Sender_multi.outstanding t.sender = 0 && Queue.is_empty t.queue

let run ?until t =
  match until with
  | Some horizon -> Ba_sim.Engine.run ~until:horizon t.engine
  | None -> Ba_sim.Engine.run t.engine

(* Process faults: the facade exposes the endpoint lifecycle so an
   application test can kill one side mid-transfer. Restarting the
   sender re-pumps, so payloads still queued resume once the resync
   handshake (if any) settles. *)
let crash_sender t = Sender_multi.crash t.sender

let restart_sender t =
  Sender_multi.restart t.sender;
  Sender_multi.pump t.sender

let crash_receiver t = Receiver.crash t.receiver
let restart_receiver t = Receiver.restart t.receiver

let stats t =
  let d = Ba_channel.Link.stats t.data_link in
  {
    submitted = t.submitted;
    delivered = !(t.delivered);
    in_flight = t.submitted - !(t.delivered);
    data_sent = d.Ba_channel.Link.sent;
    data_dropped = d.Ba_channel.Link.dropped;
    acks_sent = !(t.acks_sent);
    retransmissions = Sender_multi.retransmissions t.sender;
    ticks = Ba_sim.Engine.now t.engine;
  }
