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
module Watchdog = Ba_proto.Watchdog

let run (o : Udp_opts.t) connect wd_interval =
  let config =
    Ba_cli.validate ~tool:"ba_client" @@ fun () ->
    let config = Udp_opts.config o in
    Ba_cli.positive "--wd-interval" wd_interval;
    config
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let engine = Ba_sim.Engine.create ~seed:o.impair_seed () in
  let cli = ref None in
  let driver =
    Driver.create ~engine ~sock ~tick_us:o.tick_us
      ~on_frame:(fun f _ -> match !cli with Some c -> Endpoint.Client.on_frame c f | None -> ())
      ()
  in
  let watchdog = { Watchdog.default_config with Watchdog.check_interval = wd_interval } in
  let c =
    Endpoint.Client.create ~engine ~protocol:o.entry.Registry.protocol ~config
      ~messages:o.messages ~payload_size:o.payload_size ~wseed:o.wseed ~watchdog ?plan:o.plan
      ~impair_seed:o.impair_seed
      ~send:(fun buf len -> ignore (Driver.send_to driver connect buf len))
      ()
  in
  cli := Some c;
  let t0 = Unix.gettimeofday () in
  Endpoint.Client.pump c;
  let finished =
    Driver.run ~deadline_s:o.deadline ~stop:(fun () -> Endpoint.Client.finished c) [ driver ]
  in
  let wall = Unix.gettimeofday () -. t0 in
  Printf.printf "ba_client: %s %d messages\n" o.entry.Registry.name o.messages;
  Printf.printf "pulled: %d acked: %d\n" (Endpoint.Client.pulled c) (Endpoint.Client.acked c);
  Printf.printf "workload digest: %d\n"
    (Endpoint.expected_digest ~wseed:o.wseed ~payload_size:o.payload_size ~messages:o.messages);
  Printf.printf "completed: %b\n" finished;
  Printf.eprintf
    "ba_client: wall=%.3fs msgs/s=%.0f rx=%d tx=%d decode-errors=%d send-errors=%d \
     retx=%d resync-rounds=%d wd-resyncs=%d quarantines=%d wd-state=%s\n"
    wall
    (if wall <= 0. then 0. else float_of_int o.messages /. wall)
    (Driver.rx_datagrams driver) (Driver.tx_datagrams driver)
    (Driver.decode_errors driver) (Driver.send_errors driver)
    (Endpoint.Client.retransmissions c)
    (Endpoint.Client.resync_rounds c)
    (Endpoint.Client.watchdog_resyncs c)
    (Endpoint.Client.quarantines c)
    (Watchdog.state_name (Endpoint.Client.watchdog_state c));
  Udp_opts.report_shim ~tool:"ba_client" (Endpoint.Client.shim_counters c);
  Unix.close sock;
  if finished then 0 else 1

let connect_arg =
  Arg.(
    required
    & opt (some Ba_cli.addr_conv) None
    & info [ "connect" ] ~docv:"HOST:PORT" ~doc:"Server address (a ba_serve instance).")

let wd_interval_arg =
  Arg.(
    value
    & opt int 1000
    & info [ "wd-interval" ] ~docv:"TICKS"
        ~doc:"Watchdog check interval in engine ticks. Escalation (degrade, resync, \
              quarantine, probation) follows the fabric's default schedule on top of it.")

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
      const run $ Udp_opts.term $ connect_arg $ wd_interval_arg)

let () = exit (Cmd.eval' cmd)
