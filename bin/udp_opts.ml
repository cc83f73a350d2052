(* The options ba_serve and ba_client share, and the shim report line
   both print. The two halves of one transfer must agree on the
   protocol, the workload and the timing, so each option is defined
   once, with one name and one default. *)

open Cmdliner
module Registry = Ba_registry.Registry

type t = {
  entry : Registry.entry;
  messages : int;
  payload_size : int;
  wseed : int;
  window : int;
  rto : int;
  tick_us : int;
  plan : Ba_channel.Fault_plan.t option;
  impair_seed : int;
  deadline : float;
}

let entry_arg =
  Arg.(
    value
    & opt Ba_cli.protocol_conv (Option.get (Registry.find "blockack"))
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:"Protocol to run (a registry name; see ba_sim --list-protocols).")

let messages_arg =
  Arg.(value & opt int 1000 & info [ "n"; "messages" ] ~docv:"N" ~doc:"Workload size.")

let payload_arg =
  Arg.(value & opt int 32 & info [ "payload" ] ~docv:"BYTES" ~doc:"Payload size per message.")

let wseed_arg =
  Arg.(
    value
    & opt int 42
    & info [ "wseed" ] ~docv:"SEED"
        ~doc:"Workload seed; client and server must agree for validation to pass.")

let window_arg = Arg.(value & opt int 16 & info [ "window" ] ~docv:"W" ~doc:"Protocol window.")

let rto_arg =
  Arg.(
    value
    & opt int 250
    & info [ "rto" ] ~docv:"TICKS"
        ~doc:"Retransmission timeout in engine ticks (real duration: rto * tick-us).")

let tick_us_arg =
  Arg.(
    value
    & opt int 200
    & info [ "tick-us" ] ~docv:"US"
        ~doc:"Real microseconds per engine tick — the knob that maps virtual timers onto \
              the wall clock.")

let impair_arg =
  Arg.(
    value
    & opt (some Ba_cli.plan_conv) None
    & info [ "impair" ] ~docv:"PLAN"
        ~doc:"Fault plan applied to outgoing datagrams (same replay-key syntax as the \
              simulator's chaos campaign, e.g. 'ge(0.02->0.3,l=0.05/0.3)+dup(0.03x2)').")

let impair_seed_arg =
  Arg.(
    value
    & opt int 1
    & info [ "impair-seed" ] ~docv:"SEED"
        ~doc:"Seed for the impairment shim's fault stream (replays exactly).")

let deadline_arg =
  Arg.(
    value
    & opt float 60.
    & info [ "deadline" ] ~docv:"SECS"
        ~doc:"Hard wall-clock bound: exit 1 if the transfer has not completed by then.")

let term =
  let make entry messages payload_size wseed window rto tick_us plan impair_seed deadline =
    { entry; messages; payload_size; wseed; window; rto; tick_us; plan; impair_seed; deadline }
  in
  Term.(
    const make $ entry_arg $ messages_arg $ payload_arg $ wseed_arg $ window_arg $ rto_arg
    $ tick_us_arg $ impair_arg $ impair_seed_arg $ deadline_arg)

(* The checks of the shared options, for a tool's [Ba_cli.validate]
   closure: the protocol's config, then the workload and the clock. *)
let config o =
  let config = Registry.config ~window:o.window ~rto:o.rto o.entry () in
  Ba_cli.accepts o.entry.Registry.protocol config;
  Ba_cli.non_negative "--messages" o.messages;
  Ba_cli.within "--payload" ~lo:0 ~hi:Ba_transport.Codec.max_payload o.payload_size;
  Ba_cli.positive "--tick-us" o.tick_us;
  config

let report_shim ~tool counters =
  let n = Ba_util.Counters.get counters in
  Printf.eprintf
    "%s: shim offered=%d passed=%d dropped=%d dup=%d corrupt=%d delayed=%d outage=%d \
     gated=%d\n"
    tool (n Offered) (n Passed) (n Lost) (n Duplicated) (n Mangled) (n Delayed)
    (n Outage_drops) (n Gated)
