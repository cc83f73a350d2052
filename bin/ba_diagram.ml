(* ba_diagram: watch the protocol on the wire.

   Runs a block-acknowledgment transfer through the harness with a
   tracing wrapper around the protocol, which records every
   transmission, arrival, acknowledgment and delivery, and renders the
   classic two-column time-sequence diagram.

   Examples:
     ba_diagram -m 6 --loss 0.2                 # a lossy transfer
     ba_diagram -m 4 --kill-first-ack           # the F3 recovery scenario
     ba_diagram -m 4 --kill-first-ack --simple  # ... with the Section II sender
     ba_diagram -m 40 --from 1000 --until 3000  # zoom into a time window *)

open Cmdliner

let run messages loss jitter window coalesce simple kill_first_ack seed from_time until_time =
  let base = 50 in
  let delay =
    if jitter = 0 then Ba_channel.Dist.Constant base
    else Ba_channel.Dist.Uniform (base, base + jitter)
  in
  let rto = (2 * (base + jitter)) + coalesce + 100 in
  let config =
    Ba_cli.validate ~tool:"ba_diagram" (fun () ->
        Ba_cli.probability "--loss" loss;
        Ba_cli.non_negative "--jitter" jitter;
        Ba_cli.non_negative "--messages" messages;
        Ba_proto.Proto_config.make ~window ~rto ~wire_modulus:(Some (2 * window))
          ~ack_coalesce:coalesce ~max_transit:(base + jitter) ())
  in
  let tracer = Ba_trace.Tracer.create () in
  (* Random losses on the data link are visible as sends that never show
     a matching arrival; make the scripted ack loss explicit. *)
  let kill_first cell =
    let killed = ref false in
    Ba_channel.Link.set_fault (Ba_proto.Cell.ack_link cell) (fun (a : Ba_proto.Wire.ack) ->
        if !killed then Ba_channel.Link.Deliver
        else begin
          killed := true;
          Ba_trace.Tracer.record tracer
            ~time:(Ba_sim.Engine.now (Ba_proto.Cell.engine cell))
            ~side:Ba_trace.Tracer.Receiver
            (Printf.sprintf "<- ACK (%d,%d)  ** KILLED **" a.lo a.hi);
          Ba_channel.Link.Drop
        end)
  in
  let r =
    Ba_proto.Harness.run
      (Ba_trace.Tracer.protocol tracer
         (if simple then Blockack.Protocols.simple else Blockack.Protocols.multi))
      ~seed ~messages ~payload_size:8 ~config ~data_loss:loss ~ack_loss:loss ~data_delay:delay
      ~ack_delay:delay
      ~deadline:(max 100_000 (messages * rto * 30))
      ?on_setup:(if kill_first_ack then Some kill_first else None)
      ()
  in
  print_string
    (Ba_trace.Tracer.render ~from_time
       ~until_time:(Option.value ~default:max_int until_time)
       tracer);
  if r.completed then begin
    Printf.printf "transfer of %d messages complete\n" messages;
    0
  end
  else begin
    Printf.printf "transfer DID NOT COMPLETE\n";
    1
  end

let messages = Arg.(value & opt int 6 & info [ "m"; "messages" ] ~doc:"Messages to transfer.")
let loss = Arg.(value & opt float 0.0 & info [ "l"; "loss" ] ~doc:"Random loss on both links.")
let jitter = Arg.(value & opt int 0 & info [ "j"; "jitter" ] ~doc:"Extra uniform delay.")
let window = Arg.(value & opt int 8 & info [ "w"; "window" ] ~doc:"Window size.")

let coalesce =
  Arg.(value & opt int 20 & info [ "coalesce" ] ~doc:"Receiver ack-coalescing delay.")

let simple =
  Arg.(value & flag
       & info [ "simple" ] ~doc:"Use the Section II single-timer sender (default: Section IV).")

let kill_first_ack =
  Arg.(value & flag
       & info [ "kill-first-ack" ] ~doc:"Deterministically drop the first acknowledgment.")

let seed = Arg.(value & opt int 5 & info [ "s"; "seed" ] ~doc:"Random seed.")
let from_time = Arg.(value & opt int 0 & info [ "from" ] ~doc:"Render from this tick.")

let until_time =
  Arg.(value & opt (some int) None & info [ "until" ] ~doc:"Render up to this tick.")

let cmd =
  let doc = "render a block-acknowledgment transfer as a time-sequence diagram" in
  Cmd.v
    (Cmd.info "ba_diagram" ~doc ~version:Ba_cli.version)
    Term.(
      const run $ messages $ loss $ jitter $ window $ coalesce $ simple $ kill_first_ack
      $ seed $ from_time $ until_time)

let () = exit (Cmd.eval' cmd)
