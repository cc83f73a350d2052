(* Action 2: one timer, restarted by every data transmission, so
   "expired" means no data was sent for a full [rto]; its expiry resends
   the oldest outstanding message. *)
module Timer = struct
  type t = { engine : Ba_sim.Engine.t; slot : Ba_sim.Engine.slot; rto : int }

  let create engine config ~expire =
    let slot = Ba_sim.Engine.slot_create engine (fun () -> expire 0) in
    { engine; slot; rto = config.Config.rto }

  let grow _ ~slots:_ ~na:_ ~ns:_ = ()

  let window _ w = w
  let arm t ~slot:_ ~seq:_ ~fresh:_ = Ba_sim.Engine.slot_arm t.engine t.slot ~delay:t.rto
  let due _ _ ~na = na
  let resend _ ~slot:_ ~oldest:_ = ()
  let acked _ ~slot:_ ~seq:_ = ()
  let wipe t = Ba_sim.Engine.slot_cancel t.engine t.slot
  let slid t ~outstanding ~advanced:_ = if outstanding = 0 then wipe t
end

include Sender_core.Make (Timer)

(* Section VI's lead band is offered with action 2′ only ({!Sender_multi}). *)
let create engine config ~tx ~next_payload = create engine config ~tx ~next_payload
