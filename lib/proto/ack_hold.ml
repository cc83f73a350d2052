module Engine = Ba_sim.Engine

type t = {
  engine : Engine.t;
  wire_modulus : int option;
  cap : int;
  delay : int;
  emit : Wire.ack -> unit;
  out : Wire.ack;  (* the held range while [held]; its checksum is set on flush *)
  mutable held : bool;
  mutable slot : Engine.slot;  (* [Engine.no_slot] until the first hold *)
}

let create engine ~wire_modulus ~cap ~delay ~emit =
  {
    engine;
    wire_modulus;
    cap;
    delay;
    emit;
    out = { Wire.lo = 0; hi = 0; epoch = 0; akind = Wire.Ack; check = 0 };
    held = false;
    slot = Engine.no_slot;
  }

let flush t =
  if t.held then begin
    t.held <- false;
    let o = t.out in
    o.check <- Wire.ack_checksum ~lo:o.lo ~hi:o.hi ~epoch:o.epoch ~akind:Wire.Ack;
    t.emit o
  end

(* An armed slot at [delay = 0] already fires this tick. *)
let arm t =
  if t.slot == Engine.no_slot then t.slot <- Engine.slot_create t.engine (fun () -> flush t);
  if t.delay > 0 || not (Engine.slot_armed t.engine t.slot) then
    Engine.slot_arm t.engine t.slot ~delay:t.delay

let offer t (a : Wire.ack) =
  let o = t.out in
  if
    t.held
    && Wire.ack_extends ~wire_modulus:t.wire_modulus ~cap:t.cap ~lo:o.lo ~hi:o.hi
         ~epoch:o.epoch a
  then begin
    o.hi <- a.hi;
    arm t
  end
  else begin
    flush t;
    match a.akind with
    | Wire.Sync_pos -> t.emit a
    | Wire.Ack ->
        t.held <- true;
        o.lo <- a.lo;
        o.hi <- a.hi;
        o.epoch <- a.epoch;
        arm t
  end

let take t =
  if not t.held then None
  else begin
    t.held <- false;
    Engine.slot_cancel t.engine t.slot;
    Some (Wire.make_ack_e ~epoch:t.out.epoch ~lo:t.out.lo ~hi:t.out.hi)
  end
