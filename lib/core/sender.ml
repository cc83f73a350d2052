(* Action 2: one timer, restarted by every data transmission, so
   "expired" means no data was sent for a full [rto]; its expiry resends
   the oldest outstanding message. *)
module Timer = struct
  type t = Ba_sim.Timer.t

  let create engine config ~expire =
    Ba_sim.Timer.create engine ~duration:config.Config.rto (fun () -> expire 0)

  let grow _ ~slots:_ ~na:_ ~ns:_ = ()

  let window _ w = w
  let arm t ~slot:_ ~seq:_ ~fresh:_ = Ba_sim.Timer.start t
  let due _ _ ~na = na
  let resend _ ~slot:_ ~oldest:_ = ()
  let acked _ ~slot:_ ~seq:_ = ()
  let slid t ~outstanding ~advanced:_ = if outstanding = 0 then Ba_sim.Timer.stop t
  let wipe = Ba_sim.Timer.stop
end

include Sender_core.Make (Timer)

(* Section VI's lead band is offered with action 2′ only ({!Sender_multi}). *)
let create engine config ~tx ~next_payload = create engine config ~tx ~next_payload
