(* ba_client: the sender half of a registry protocol on a real UDP
   socket.

   Connects to a ba_serve instance, pulls the deterministic workload,
   and drives the protocol's sender under a wall-clock driver. The
   liveness watchdog runs off real silence: no acknowledged progress
   for its configured number of check intervals triggers the
   crash-restart resync (epoch bump + REQ/POS/FIN), then quarantine
   with probation — so a killed server is detected by timeout,
   re-admitted on restart through the handshake, and the transfer
   completes without operator help.

   The stdout summary contains only timing-free fields (replays of the
   same seeds are byte-identical); wall-clock throughput and socket and
   shim counters go to stderr.

   Examples:
     ba_client --connect 127.0.0.1:9000 --messages 500
     ba_client --connect 127.0.0.1:$(cat port) --impair 'ge(0.02->0.3,l=0.05/0.3)' *)

open Cmdliner
module Registry = Ba_registry.Registry
module Driver = Ba_transport.Driver
module Endpoint = Ba_transport.Endpoint
module Shim = Ba_transport.Shim
module Watchdog = Ba_proto.Watchdog

let run entry connect messages payload_size wseed window rto tick_us wd_interval plan
    impair_seed deadline =
  let config =
    Ba_cli.validate ~tool:"ba_client" @@ fun () ->
    let config = Registry.config ~window ~rto entry () in
    Ba_cli.accepts entry.Registry.protocol config;
    Ba_cli.non_negative "--messages" messages;
    Ba_cli.within "--payload" ~lo:0 ~hi:Ba_transport.Codec.max_payload payload_size;
    Ba_cli.positive "--tick-us" tick_us;
    Ba_cli.positive "--wd-interval" wd_interval;
    config
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let engine = Ba_sim.Engine.create ~seed:impair_seed () in
  let cli = ref None in
  let driver =
    Driver.create ~engine ~sock ~tick_us
      ~on_frame:(fun f _ -> match !cli with Some c -> Endpoint.Client.on_frame c f | None -> ())
      ()
  in
  let watchdog = { Watchdog.default_config with Watchdog.check_interval = wd_interval } in
  let c =
    Endpoint.Client.create ~engine ~protocol:entry.Registry.protocol ~config ~messages
      ~payload_size ~wseed ~watchdog ?plan ~impair_seed
      ~send:(fun buf len -> ignore (Driver.send_to driver connect buf len))
      ()
  in
  cli := Some c;
  let t0 = Unix.gettimeofday () in
  Endpoint.Client.pump c;
  let finished =
    Driver.run ~deadline_s:deadline ~stop:(fun () -> Endpoint.Client.finished c) [ driver ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "ba_client: %s %d messages\n" entry.Registry.name messages;
  Printf.printf "pulled: %d acked: %d\n" (Endpoint.Client.pulled c) (Endpoint.Client.acked c);
  Printf.printf "workload digest: %d\n"
    (Endpoint.expected_digest ~wseed ~payload_size ~messages);
  Printf.printf "completed: %b\n" finished;
  let ss = Endpoint.Client.shim_stats c in
  Printf.eprintf
    "ba_client: wall=%.3fs msgs/s=%.0f rx=%d tx=%d decode-errors=%d send-errors=%d \
     retx=%d resync-rounds=%d wd-resyncs=%d quarantines=%d wd-state=%s\n"
    wall
    (if wall <= 0. then 0. else float_of_int messages /. wall)
    (Driver.rx_datagrams driver) (Driver.tx_datagrams driver)
    (Driver.decode_errors driver) (Driver.send_errors driver)
    (Endpoint.Client.retransmissions c)
    (Endpoint.Client.resync_rounds c)
    (Endpoint.Client.watchdog_resyncs c)
    (Endpoint.Client.quarantines c)
    (Watchdog.state_name (Endpoint.Client.watchdog_state c));
  Printf.eprintf
    "ba_client: shim offered=%d passed=%d dropped=%d dup=%d corrupt=%d delayed=%d \
     outage=%d gated=%d\n"
    ss.Shim.offered ss.Shim.passed ss.Shim.dropped ss.Shim.duplicated ss.Shim.corrupted
    ss.Shim.delayed ss.Shim.outage_drops ss.Shim.gated;
  Unix.close sock;
  if finished then 0 else 1

let entry_arg =
  Arg.(
    value
    & opt Ba_cli.protocol_conv (Option.get (Registry.find "blockack"))
    & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
        ~doc:"Protocol to run (a registry name; see ba_sim --list-protocols).")

let connect_arg =
  Arg.(
    required
    & opt (some Ba_cli.addr_conv) None
    & info [ "connect" ] ~docv:"HOST:PORT" ~doc:"Server address (a ba_serve instance).")

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

let wd_interval_arg =
  Arg.(
    value
    & opt int 1000
    & info [ "wd-interval" ] ~docv:"TICKS"
        ~doc:"Watchdog check interval in engine ticks. Escalation (degrade, resync, \
              quarantine, probation) follows the fabric's default schedule on top of it.")

let impair_arg =
  Arg.(
    value
    & opt (some Ba_cli.plan_conv) None
    & info [ "impair" ] ~docv:"PLAN"
        ~doc:"Fault plan applied to outgoing datagrams (same replay-key syntax as the \
              simulator's chaos campaign).")

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

let cmd =
  let doc = "drive a window-protocol sender against a real UDP server" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the sender half of a registry protocol over real UDP against $(b,ba_serve): \
         virtual retransmission timers mapped onto the wall clock, a liveness watchdog \
         that detects a dead peer by real silence and recovers it through the \
         incarnation-epoch resync handshake (escalating to quarantine with probation), \
         and an optional impairment shim on the outgoing path. Exit status 1 if the \
         transfer did not complete before $(b,--deadline).";
    ]
  in
  Cmd.v
    (Cmd.info "ba_client" ~doc ~man ~version:Ba_cli.version)
    Term.(
      const run $ entry_arg $ connect_arg $ messages_arg $ payload_arg $ wseed_arg
      $ window_arg $ rto_arg $ tick_us_arg $ wd_interval_arg $ impair_arg
      $ impair_seed_arg $ deadline_arg)

let () = exit (Cmd.eval' cmd)
