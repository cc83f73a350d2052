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

let run (o : Udp_opts.t) listen port_file state die_after linger =
  let config, restore =
    Ba_cli.validate ~tool:"ba_serve" @@ fun () ->
    let config = Udp_opts.config o in
    let restore =
      match Option.bind state read_state with
      | None -> None
      | Some (e, p, d) ->
          let path = Option.get state in
          let (module P : Ba_proto.Protocol.S) = o.entry.Registry.protocol in
          if Option.is_none P.lifecycle then
            Ba_cli.reject "%s has no crash lifecycle to resume from state file %s"
              o.entry.Registry.name path;
          (* The state must be a prefix of this run's workload. *)
          if p > o.messages then
            Ba_cli.reject "state file %s holds position %d, past --messages %d" path p
              o.messages;
          if d <> Endpoint.expected_digest ~wseed:o.wseed ~payload_size:o.payload_size ~messages:p
          then
            Ba_cli.reject
              "state file %s: digest %d is not that of the first %d messages under --wseed %d \
               --payload %d"
              path d p o.wseed o.payload_size;
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
  let engine = Ba_sim.Engine.create ~seed:o.impair_seed () in
  let srv = ref None in
  let driver =
    Driver.create ~engine ~sock ~tick_us:o.tick_us
      ~on_frame:(fun f from -> match !srv with Some s -> Endpoint.Server.on_frame s f from | None -> ())
      ()
  in
  let session_deliveries = ref 0 in
  let s =
    Endpoint.Server.create ~engine ~protocol:o.entry.Registry.protocol ~config
      ~messages:o.messages ~payload_size:o.payload_size ~wseed:o.wseed ?restore ?plan:o.plan
      ~impair_seed:o.impair_seed
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
  let finished = Driver.run ~deadline_s:o.deadline ~stop [ driver ] in
  let wall = Unix.gettimeofday () -. t0 in
  let expected =
    Endpoint.expected_digest ~wseed:o.wseed ~payload_size:o.payload_size ~messages:o.messages
  in
  Printf.printf "ba_serve: %s %d messages\n" o.entry.Registry.name o.messages;
  Printf.printf "resumed: %s\n"
    (match restore with
    | Some (e, p, _) -> Printf.sprintf "epoch %d position %d" e p
    | None -> "no");
  Printf.printf
    "delivered: %d/%d (this run %d) duplicates=%d misordered=%d corrupted=%d\n"
    (Endpoint.Server.position s) o.messages
    (Endpoint.Server.position s - start_pos)
    (Endpoint.Server.duplicates s) (Endpoint.Server.misordered s)
    (Endpoint.Server.corrupted s);
  Printf.printf "digest: %s\n"
    (if Endpoint.Server.digest s = expected then "ok" else "MISMATCH");
  Printf.printf "completed: %b\n" finished;
  Printf.eprintf
    "ba_serve: wall=%.3fs rx=%d tx=%d decode-errors=%d send-errors=%d acks=%d \
     resync-rounds=%d epoch=%d\n"
    wall (Driver.rx_datagrams driver) (Driver.tx_datagrams driver)
    (Driver.decode_errors driver) (Driver.send_errors driver)
    (Endpoint.Server.acks_sent s) (Endpoint.Server.resync_rounds s)
    (Endpoint.Server.epoch s);
  Udp_opts.report_shim ~tool:"ba_serve" (Endpoint.Server.shim_counters s);
  Unix.close sock;
  if finished then 0 else 1

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
      const run $ Udp_opts.term $ listen_arg $ port_file_arg $ state_arg $ die_after_arg
      $ linger_arg)

let () = exit (Cmd.eval' cmd)
