(* A thin veneer over an {!Engine.slot}: the callback is registered once
   here, and every (re)arm after that moves the slot's one queue entry in
   place, allocating nothing. *)

type t = {
  engine : Engine.t;
  slot : Engine.slot;
  mutable duration : int;
}

let create engine ~duration callback =
  if duration < 0 then invalid_arg "Timer.create: negative duration";
  { engine; slot = Engine.slot_create engine callback; duration }

let stop t = Engine.slot_cancel t.engine t.slot

let start_for t duration = Engine.slot_arm t.engine t.slot ~delay:duration

let start t = start_for t t.duration

let is_armed t = Engine.slot_armed t.engine t.slot

let duration t = t.duration

let set_duration t d =
  if d < 0 then invalid_arg "Timer.set_duration: negative duration";
  t.duration <- d

let remaining t =
  if is_armed t then Some (max 0 (Engine.slot_expiry t.engine t.slot - Engine.now t.engine))
  else None
