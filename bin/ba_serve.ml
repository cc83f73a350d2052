(* ba_serve: the receiver half of a registry protocol on a real UDP
   socket.

   Binds --listen, learns the client's address from its first datagram,
   and runs the protocol's receiver under a wall-clock driver: acks and
   resync POS frames go out through an optional impairment shim, and
   every accepted delivery is validated against the deterministic
   workload and folded into a running digest.

   With --state the durable triple (epoch, position, digest) is
   rewritten after each delivery, and a fresh process started on the
   same state file comes back as the next incarnation at the persisted
   position — the epoch handshake then resumes the transfer with no
   duplicate delivery. --die-after K SIGKILLs the process after K
   deliveries, which is how the cram tests kill a server mid-transfer
   deterministically.

   The stdout summary contains only timing-free fields, so a replay of
   the same seeds is byte-identical; wall-clock figures and socket/shim
   counters go to stderr.

   Examples:
     ba_serve --listen 127.0.0.1:9000 --messages 500
     ba_serve --listen 127.0.0.1:0 --port-file port --state srv.state --die-after 200 *)

open Cmdliner
module Registry = Ba_registry.Registry
module Driver = Ba_transport.Driver
module Endpoint = Ba_transport.Endpoint
module Shim = Ba_transport.Shim

(* Durable receiver state: one text line "epoch pos digest". Written to
   a sibling temp file and renamed into place so a SIGKILL at any
   instant leaves either the old record or the new one, never a torn
   write — that atomicity is what makes --die-after recoverable. *)
let persist_state path ~epoch ~pos ~digest =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Printf.fprintf oc "%d %d %d\n" epoch pos digest;
  close_out oc;
  Sys.rename tmp path

(* The state file comes from outside the program: anything but one
   well-formed line is a parameter error. *)
let read_state path =
  if not (Sys.file_exists path) then None
  else
    let line =
      match In_channel.with_open_text path In_channel.input_line with
      | Some l -> l
      | None -> ""
      | exception Sys_error reason -> Ba_cli.reject "cannot read state file: %s" reason
    in
    match List.map int_of_string_opt (String.split_on_char ' ' (String.trim line)) with
    | [ Some e; Some p; Some d ] when e >= 0 && p >= 0 -> Some (e, p, d)
    | _ -> Ba_cli.reject "corrupt state file %s" path

let run entry listen port_file messages payload_size wseed window rto tick_us state
    die_after plan impair_seed deadline linger =
  let config, restore =
    Ba_cli.validate ~tool:"ba_serve" @@ fun () ->
    let config = Registry.config ~window ~rto entry () in
    Ba_cli.accepts entry.Registry.protocol config;
    Ba_cli.non_negative "--messages" messages;
    Ba_cli.within "--payload" ~lo:0 ~hi:Ba_transport.Codec.max_payload payload_size;
    Ba_cli.positive "--tick-us" tick_us;
    let restore =
      match Option.bind state read_state with
      | None -> None
      | Some (e, p, d) ->
          let (module P : Ba_proto.Protocol.S) = entry.Registry.protocol in
          if Option.is_none P.lifecycle then
            Ba_cli.reject "%s has no crash lifecycle to resume from state file %s"
              entry.Registry.name (Option.get state);
          Some (e + 1, p, d)
    in
    (config, restore)
  in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock listen;
  (match Unix.getsockname sock with
  | Unix.ADDR_INET (_, p) -> (
      match port_file with
      | Some f ->
          let oc = open_out f in
          Printf.fprintf oc "%d\n" p;
          close_out oc
      | None -> ())
  | Unix.ADDR_UNIX _ -> ());
  let engine = Ba_sim.Engine.create ~seed:impair_seed () in
  let srv = ref None in
  let driver =
    Driver.create ~engine ~sock ~tick_us
      ~on_frame:(fun f from -> match !srv with Some s -> Endpoint.Server.on_frame s f from | None -> ())
      ()
  in
  let session_deliveries = ref 0 in
  let s =
    Endpoint.Server.create ~engine ~protocol:entry.Registry.protocol ~config ~messages
      ~payload_size ~wseed ?restore ?plan ~impair_seed
      ~on_deliver:(fun ~epoch ~pos ~digest ->
        (match state with Some path -> persist_state path ~epoch ~pos ~digest | None -> ());
        incr session_deliveries;
        match die_after with
        | Some k when !session_deliveries >= k ->
            (* Deterministic mid-transfer death: state is already on
               disk, so the next incarnation resumes at exactly here. *)
            Unix.kill (Unix.getpid ()) Sys.sigkill
        | Some _ | None -> ())
      ~send:(fun addr buf len -> ignore (Driver.send_to driver addr buf len))
      ()
  in
  srv := Some s;
  let start_pos = match restore with Some (_, p, _) -> p | None -> 0 in
  let t0 = Unix.gettimeofday () in
  (* Linger after completion: the client may still be missing its final
     acknowledgment, and only retransmitted data re-triggers it. *)
  let complete_at = ref None in
  let stop () =
    if not (Endpoint.Server.complete s) then false
    else begin
      (match !complete_at with None -> complete_at := Some (Unix.gettimeofday ()) | Some _ -> ());
      match !complete_at with
      | Some t -> Unix.gettimeofday () -. t >= linger
      | None -> false
    end
  in
  let finished = Driver.run ~deadline_s:deadline ~stop [ driver ] in
  let wall = Unix.gettimeofday () -. t0 in
  let expected = Endpoint.expected_digest ~wseed ~payload_size ~messages in
  Printf.printf "ba_serve: %s %d messages\n" entry.Registry.name messages;
  Printf.printf "resumed: %s\n"
    (match restore with
    | Some (e, p, _) -> Printf.sprintf "epoch %d position %d" e p
    | None -> "no");
  Printf.printf
    "delivered: %d/%d (this run %d) duplicates=%d misordered=%d corrupted=%d\n"
    (Endpoint.Server.position s) messages
    (Endpoint.Server.position s - start_pos)
    (Endpoint.Server.duplicates s) (Endpoint.Server.misordered s)
    (Endpoint.Server.corrupted s);
  Printf.printf "digest: %s\n"
    (if Endpoint.Server.digest s = expected then "ok" else "MISMATCH");
  Printf.printf "completed: %b\n" finished;
  let ss = Endpoint.Server.shim_stats s in
  Printf.eprintf
    "ba_serve: wall=%.3fs rx=%d tx=%d decode-errors=%d send-errors=%d acks=%d \
     resync-rounds=%d epoch=%d\n"
    wall (Driver.rx_datagrams driver) (Driver.tx_datagrams driver)
    (Driver.decode_errors driver) (Driver.send_errors driver)
    (Endpoint.Server.acks_sent s) (Endpoint.Server.resync_rounds s)
    (Endpoint.Server.epoch s);
  Printf.eprintf
    "ba_serve: shim offered=%d passed=%d dropped=%d dup=%d corrupt=%d delayed=%d \
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
        ~doc:"Protocol to serve (a registry name; see ba_sim --list-protocols).")

let listen_arg =
  Arg.(
    value
    & opt Ba_cli.addr_conv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
    & info [ "listen" ] ~docv:"HOST:PORT"
        ~doc:"Address to bind (port 0 picks a free port; see $(b,--port-file)).")

let port_file_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "port-file" ] ~docv:"FILE"
        ~doc:"Write the bound UDP port to FILE once listening — how scripts connect to a \
              server started on port 0.")

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

let state_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "state" ] ~docv:"FILE"
        ~doc:"Durable state file (epoch, position, digest), rewritten atomically after \
              every delivery. If it exists at startup the server resumes from it as the \
              next incarnation.")

let die_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "die-after" ] ~docv:"K"
        ~doc:"SIGKILL this process after K deliveries in this run (test hook for \
              kill-and-restart recovery).")

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

let linger_arg =
  Arg.(
    value
    & opt float 0.5
    & info [ "linger" ] ~docv:"SECS"
        ~doc:"Keep serving this long after the last delivery, so retransmitted data can \
              re-trigger the client's final acknowledgment.")

let cmd =
  let doc = "serve a window-protocol receiver on a real UDP socket" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the receiver half of a registry protocol over loopback (or any) UDP: \
         engine timers mapped onto the wall clock, arrivals decoded by the length-prefixed \
         binary codec (garbage is counted and dropped, never fatal), deliveries validated \
         against the deterministic workload. With $(b,--state) the durable (epoch, \
         position, digest) triple survives SIGKILL, and a restarted server re-admits the \
         client through the incarnation-epoch resync handshake. Exit status 1 if the \
         transfer did not complete before $(b,--deadline).";
    ]
  in
  Cmd.v
    (Cmd.info "ba_serve" ~doc ~man ~version:Ba_cli.version)
    Term.(
      const run $ entry_arg $ listen_arg $ port_file_arg $ messages_arg $ payload_arg
      $ wseed_arg $ window_arg $ rto_arg $ tick_us_arg $ state_arg $ die_after_arg
      $ impair_arg $ impair_seed_arg $ deadline_arg $ linger_arg)

let () = exit (Cmd.eval' cmd)
