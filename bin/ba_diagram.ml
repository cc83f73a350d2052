(* ba_diagram: watch the protocol on the wire.

   Builds a block-acknowledgment transfer out of raw endpoints, records
   every transmission, loss, delivery and acknowledgment, and renders the
   classic two-column time-sequence diagram.

   Examples:
     ba_diagram -m 6 --loss 0.2                 # a lossy transfer
     ba_diagram -m 4 --kill-first-ack           # the F3 recovery scenario
     ba_diagram -m 4 --kill-first-ack --simple  # ... with the Section II sender
     ba_diagram -m 40 --from 1000 --until 3000  # zoom into a time window *)

open Cmdliner

type sender_ops = { pump : unit -> unit; on_ack : Ba_proto.Wire.ack -> unit; done_ : unit -> bool }

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
  let engine = Ba_sim.Engine.create ~seed () in
  let tracer = Ba_trace.Tracer.create () in
  let trace side fmt =
    Printf.ksprintf
      (fun label -> Ba_trace.Tracer.record tracer ~time:(Ba_sim.Engine.now engine) ~side label)
      fmt
  in
  let sender_cell = ref None and receiver_cell = ref None in
  let data_link =
    Ba_channel.Link.create engine ~loss ~delay
      ~deliver:(fun (d : Ba_proto.Wire.data) ->
        trace Ba_trace.Tracer.Receiver "-> DATA %d" d.Ba_proto.Wire.seq;
        match !receiver_cell with Some r -> Blockack.Receiver.on_data r d | None -> ())
      ()
  in
  let killed = ref false in
  let ack_link =
    Ba_channel.Link.create engine ~loss ~delay
      ~deliver:(fun (a : Ba_proto.Wire.ack) ->
        trace Ba_trace.Tracer.Sender "ACK (%d,%d) <-" a.Ba_proto.Wire.lo a.Ba_proto.Wire.hi;
        match !sender_cell with Some s -> s.on_ack a | None -> ())
      ()
  in
  (* Random losses on the data link are visible as sends that never show
     a matching arrival; make ack losses explicit in the diagram. *)
  Ba_channel.Link.set_fault ack_link (fun (a : Ba_proto.Wire.ack) ->
      if kill_first_ack && not !killed then begin
        killed := true;
        trace Ba_trace.Tracer.Receiver "<- ACK (%d,%d)  ** KILLED **" a.Ba_proto.Wire.lo
          a.Ba_proto.Wire.hi;
        Ba_channel.Link.Drop
      end
      else Ba_channel.Link.Deliver);
  let next_payload = Ba_proto.Workload.supplier ~seed ~size:8 ~count:messages in
  let tx_data (d : Ba_proto.Wire.data) =
    trace Ba_trace.Tracer.Sender "DATA %d ->" d.Ba_proto.Wire.seq;
    Ba_channel.Link.send data_link d
  in
  let tx_ack (a : Ba_proto.Wire.ack) =
    trace Ba_trace.Tracer.Receiver "<- ACK (%d,%d)" a.Ba_proto.Wire.lo a.Ba_proto.Wire.hi;
    Ba_channel.Link.send ack_link a
  in
  let deliver payload = trace Ba_trace.Tracer.Receiver "deliver %S" payload in
  let sender =
    if simple then begin
      let s = Blockack.Sender.create engine config ~tx:tx_data ~next_payload in
      {
        pump = (fun () -> Blockack.Sender.pump s);
        on_ack = Blockack.Sender.on_ack s;
        done_ = (fun () -> Blockack.Sender.is_done s);
      }
    end
    else begin
      let s = Blockack.Sender_multi.create engine config ~tx:tx_data ~next_payload in
      {
        pump = (fun () -> Blockack.Sender_multi.pump s);
        on_ack = Blockack.Sender_multi.on_ack s;
        done_ = (fun () -> Blockack.Sender_multi.is_done s);
      }
    end
  in
  sender_cell := Some sender;
  receiver_cell := Some (Blockack.Receiver.create engine config ~tx:tx_ack ~deliver);
  sender.pump ();
  Ba_sim.Engine.run ~until:(max 100_000 (messages * rto * 30)) engine;
  print_string
    (Ba_trace.Tracer.render ~from_time
       ~until_time:(Option.value ~default:max_int until_time)
       tracer);
  if sender.done_ () then begin
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
