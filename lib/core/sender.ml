(* Action 2: one timer, restarted by every data transmission, so
   "expired" means no data was sent for a full [rto]; its expiry resends
   the oldest outstanding message. The timer is the sender's own engine
   slot, so the policy keeps no state. *)
module Timer = struct
  type t = unit

  let create _ = ()
  let fired _ = 0
  let grow () ~slots:_ ~na:_ ~ns:_ = ()
  let window _ w = w

  let arm (s : t Sender_core.core) ~slot:_ ~fresh:_ =
    Ba_sim.Engine.slot_arm s.engine s.slot ~delay:s.config.Config.rto

  let due () _ ~na = na
  let resend _ ~slot:_ ~oldest:_ = ()
  let acked _ ~slot:_ = ()
  let wipe (s : t Sender_core.core) = Ba_sim.Engine.slot_cancel s.engine s.slot
  let slid s ~outstanding ~advanced:_ = if outstanding = 0 then wipe s
end

include Sender_core.Make (Timer)

(* Section VI's lead band is offered with action 2′ only ({!Sender_multi}). *)
let create engine config ~tx ~next_payload = create engine config ~tx ~next_payload
