module Counters = Ba_util.Counters

type frame = {
  seq : int option;
  payload : string;
  pack : Ba_proto.Wire.ack option;
}

type endpoint = {
  engine : Ba_sim.Engine.t;
  queue : string Queue.t;
  mutable submitted : int;
  mutable delivered : int;
  mutable link : frame Ba_channel.Link.t option;  (* tied after both endpoints exist *)
  mutable sender : Sender_multi.t option;
  mutable receiver : Receiver.t option;
  mutable data_frames : int;
  mutable pure_ack_frames : int;
  mutable piggybacked_acks : int;
}

type t = { engine : Ba_sim.Engine.t; ea : endpoint; eb : endpoint }

let transmit_frame e frame =
  (match frame.seq with
  | Some _ -> e.data_frames <- e.data_frames + 1
  | None -> e.pure_ack_frames <- e.pure_ack_frames + 1);
  if frame.pack <> None && frame.seq <> None then
    e.piggybacked_acks <- e.piggybacked_acks + 1;
  match e.link with Some link -> Ba_channel.Link.send link frame | None -> ()

let pure_ack e (a : Ba_proto.Wire.ack) =
  transmit_frame e { seq = None; payload = ""; pack = Some a }

(* Outbound data: wrap the wire record into a frame, piggybacking the
   held acknowledgment for the reverse direction, if any. *)
let tx_data e hold (d : Ba_proto.Wire.data) =
  transmit_frame e
    {
      seq = Some d.Ba_proto.Wire.seq;
      payload = d.Ba_proto.Wire.payload;
      pack = Ba_proto.Ack_hold.take hold;
    }

(* Outbound acknowledgment from our receiver half: held for a data frame
   to ride on, and flushed as a pure-ack frame [piggyback_hold] ticks
   after the latest one. *)
let tx_ack ~piggyback_hold e hold a =
  if piggyback_hold = 0 then pure_ack e a else Ba_proto.Ack_hold.offer hold a

let on_frame e frame =
  (* Data first: the receiver may pend a fresh acknowledgment, which the
     sends triggered by the piggybacked ack below can then carry. *)
  (match frame.seq with
  | Some seq ->
      Option.iter
        (fun r -> Receiver.on_data r (Ba_proto.Wire.make_data ~seq ~payload:frame.payload))
        e.receiver
  | None -> ());
  match frame.pack with
  | Some a -> Option.iter (fun s -> Sender_multi.on_ack s a) e.sender
  | None -> ()

let make_endpoint engine =
  {
    engine;
    queue = Queue.create ();
    submitted = 0;
    delivered = 0;
    link = None;
    sender = None;
    receiver = None;
    data_frames = 0;
    pure_ack_frames = 0;
    piggybacked_acks = 0;
  }

let default_config = Config.make ~wire_modulus:(Some (2 * Config.default.Config.window)) ()

let create ?(seed = 42) ?(config = default_config) ?(piggyback_hold = 15) ?(loss = 0.)
    ?(delay = Ba_channel.Dist.Uniform (40, 60)) ~on_receive_a ~on_receive_b () =
  if piggyback_hold < 0 then invalid_arg "Duplex.create: piggyback_hold must be >= 0";
  (* A held ack is in transit for [piggyback_hold] ticks longer, so the
     timeout and the window guard's hold must both cover it. *)
  let ack_time = (2 * Ba_channel.Dist.max_delay delay) + config.Config.ack_coalesce in
  if config.Config.wire_modulus <> None && config.Config.rto <= ack_time + piggyback_hold then
    Printf.ksprintf invalid_arg
      "Duplex.create: rto %d must exceed 2 * max delay + ack_coalesce + piggyback_hold = %d"
      config.Config.rto (ack_time + piggyback_hold);
  if config.Config.max_transit <> None && piggyback_hold > 0 then
    invalid_arg
      "Duplex.create: max_transit needs piggyback_hold = 0 (the window guard's hold omits it)";
  let engine = Ba_sim.Engine.create ~seed () in
  let ea = make_endpoint engine and eb = make_endpoint engine in
  (* Each endpoint's outbound link delivers to the peer. *)
  ea.link <- Some (Ba_channel.Link.create engine ~loss ~delay ~deliver:(fun f -> on_frame eb f) ());
  eb.link <- Some (Ba_channel.Link.create engine ~loss ~delay ~deliver:(fun f -> on_frame ea f) ());
  let wire_endpoint e on_receive =
    (* The hold's record is its own: the frame gets a copy. *)
    let hold =
      Ba_proto.Ack_hold.create engine ~wire_modulus:config.Config.wire_modulus
        ~cap:config.Config.window ~delay:piggyback_hold
        ~emit:(fun a -> pure_ack e { a with Ba_proto.Wire.lo = a.Ba_proto.Wire.lo })
    in
    e.sender <-
      Some
        (Sender_multi.create engine config ~tx:(tx_data e hold)
           ~next_payload:(fun () ->
             if Queue.is_empty e.queue then raise_notrace Ba_proto.Protocol.Exhausted
             else Queue.take e.queue));
    e.receiver <-
      Some
        (Receiver.create engine config
           ~tx:(tx_ack ~piggyback_hold e hold)
           ~deliver:(fun msg ->
             e.delivered <- e.delivered + 1;
             on_receive msg))
  in
  (* [on_receive_a] fires for messages arriving at A (sent by B), and
     vice versa. *)
  wire_endpoint ea on_receive_a;
  wire_endpoint eb on_receive_b;
  { engine; ea; eb }

(* A sends into its own queue; deliveries surface at the peer. *)
let a t = t.ea
let b t = t.eb

let send e msg =
  e.submitted <- e.submitted + 1;
  Queue.add msg e.queue;
  Option.iter Sender_multi.pump e.sender

let endpoint_idle e =
  (match e.sender with Some s -> Sender_multi.outstanding s = 0 | None -> true)
  && Queue.is_empty e.queue

let idle t =
  endpoint_idle t.ea && endpoint_idle t.eb
  && t.ea.submitted = t.eb.delivered
  && t.eb.submitted = t.ea.delivered

let run ?until t =
  match until with
  | Some horizon -> Ba_sim.Engine.run ~until:horizon t.engine
  | None -> Ba_sim.Engine.run t.engine

let counters e =
  let b = Counters.create () in
  Counters.add b Messages e.submitted;
  Counters.add b Delivered e.delivered;
  Counters.add b Data_sent e.data_frames;
  Counters.add b Acks_sent e.pure_ack_frames;
  Counters.add b Piggybacked_acks e.piggybacked_acks;
  Counters.add b Retransmissions
    (match e.sender with Some s -> Sender_multi.retransmissions s | None -> 0);
  b

let engine t = t.engine
