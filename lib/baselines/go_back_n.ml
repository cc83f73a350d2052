module Wire = Ba_proto.Wire
module Config = Ba_proto.Proto_config

type sender = {
  config : Config.t;
  engine : Ba_sim.Engine.t;
  tx : Wire.data -> unit;
  source : Ba_proto.Source.t;  (* the outbox: payload of [seq] at position [seq] *)
  mutable timer : Ba_sim.Engine.slot;  (* [Engine.no_slot] until [create_sender] sets it *)
  mutable retransmissions : int;
}

type receiver = {
  r_config : Config.t;
  r_tx : Wire.ack -> unit;
  r_deliver : string -> unit;
  mutable nr : int;
}

let name = "go-back-n"

let encode config seq =
  match config.Config.wire_modulus with
  | None -> seq
  | Some n -> Ba_util.Modseq.wrap ~n seq

let transmit s seq =
  s.tx (Wire.make_data ~seq:(encode s.config seq) ~payload:(Ba_proto.Source.get s.source seq));
  Ba_sim.Engine.slot_arm s.engine s.timer ~delay:s.config.Config.rto

(* The outbox holds exactly the outstanding range [na, ns): the sender
   releases below [na] on every ack and never rewinds. *)
let na s = Ba_proto.Source.base s.source
let ns s = Ba_proto.Source.issued s.source
let outstanding s = ns s - na s

let rec pump s =
  if outstanding s < s.config.Config.window && Ba_proto.Source.next s.source then begin
    transmit s (ns s - 1);
    pump s
  end

(* Go back N: resend the entire outstanding window, oldest first. *)
let on_timeout s =
  if outstanding s > 0 then begin
    for seq = na s to ns s - 1 do
      s.retransmissions <- s.retransmissions + 1;
      transmit s seq
    done
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

(* Cumulative acknowledgment: everything up to and including the decoded
   position is delivered. Bounded wire numbers are decoded as the unique
   position in [na - 1, na + w - 1] congruent to the wire number — which
   is exactly the ambiguity the paper's introduction exploits: a stale
   acknowledgment from an earlier window decodes to a recent position. *)
let decode_cumulative s wire =
  match s.config.Config.wire_modulus with
  | None -> Some wire
  | Some n ->
      let d = Ba_util.Modseq.distance ~n (Ba_util.Modseq.wrap ~n (na s - 1)) wire in
      if d >= 1 && d <= s.config.Config.window then Some (na s - 1 + d) else None

let sender_on_ack s { Wire.hi; lo = _; _ } =
  match decode_cumulative s hi with
  | None -> ()
  | Some y ->
      if y >= na s then begin
        (* [y >= ns] is an unsound decode of a stale acknowledgment
           (bounded mode only): the textbook sender cannot tell and
           slides anyway — this is the misbehaviour the experiments
           demonstrate. Clip before the increment: a forged [max_int]
           would wrap to a negative [na]. *)
        Ba_proto.Source.release s.source ~below:(min y (ns s - 1) + 1);
        if outstanding s = 0 then Ba_sim.Engine.slot_cancel s.engine s.timer;
        pump s
      end

let create_receiver _engine config ~tx ~deliver =
  Config.validate config;
  { r_config = config; r_tx = tx; r_deliver = deliver; nr = 0 }

(* The textbook receiver trusts every frame as-is: no checksum check, so
   an in-flight corruption is delivered verbatim — one of the
   misbehaviours the chaos campaign demonstrates. *)
let receiver_on_data r { Wire.seq; payload; _ } =
  let matches =
    match r.r_config.Config.wire_modulus with
    | None -> seq = r.nr
    | Some n -> seq = Ba_util.Modseq.wrap ~n r.nr
  in
  if matches then begin
    r.r_deliver payload;
    r.nr <- r.nr + 1;
    let w = encode r.r_config (r.nr - 1) in
    r.r_tx (Wire.make_ack ~lo:w ~hi:w)
  end
  else if r.nr > 0 then begin
    (* Out of order: discard and re-acknowledge the last in-order one. *)
    let w = encode r.r_config (r.nr - 1) in
    r.r_tx (Wire.make_ack ~lo:w ~hi:w)
  end

let sender_pump = pump
let sender_done s = outstanding s = 0 && Ba_proto.Source.exhausted s.source
let sender_outstanding = outstanding
let sender_retransmissions s = s.retransmissions
let ack_wire_bytes = Wire.ack_bytes_single

let protocol : Ba_proto.Protocol.t =
  (module struct
    let name = name

    type nonrec sender = sender
    type nonrec receiver = receiver

    let validate = Config.validate
    let create_sender = create_sender
    let create_receiver = create_receiver
    let sender_on_ack = sender_on_ack
    let receiver_on_data = receiver_on_data
    let sender_pump = sender_pump
    let sender_done = sender_done
    let sender_outstanding = sender_outstanding
    let sender_retransmissions = sender_retransmissions
    let ack_wire_bytes = ack_wire_bytes
    let lifecycle = None
    let overload = None
  end)
