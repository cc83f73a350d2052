(* Ack-loss recovery, on the wire: run a tiny transfer through the
   harness with a tracing wrapper around the protocol, kill the one block
   acknowledgment that covers the whole window, and render time-sequence
   diagrams of how each timeout design recovers (the paper's Section II
   vs Section IV).

   Run with: dune exec examples/ack_loss_recovery.exe *)

module Link = Ba_channel.Link

let block = 4
let rto = 300

let config =
  Blockack.Config.make ~window:8 ~rto ~wire_modulus:(Some 16) ~ack_coalesce:20
    ~max_transit:50 ()

let run_one protocol =
  let tracer = Ba_trace.Tracer.create () in
  (* The fault: drop the first acknowledgment — it will be the coalesced
     block ack covering all [block] messages. *)
  let lose_first cell =
    let killed = ref false in
    Link.set_fault (Ba_proto.Cell.ack_link cell) (fun (a : Ba_proto.Wire.ack) ->
        if !killed then Link.Deliver
        else begin
          killed := true;
          Ba_trace.Tracer.record tracer
            ~time:(Ba_sim.Engine.now (Ba_proto.Cell.engine cell))
            ~side:Ba_trace.Tracer.Receiver
            (Printf.sprintf "<- ACK (%d,%d)  ** LOST **" a.lo a.hi);
          Link.Drop
        end)
  in
  let r =
    Ba_proto.Harness.run (Ba_trace.Tracer.protocol tracer protocol) ~seed:1 ~messages:block
      ~payload_size:8 ~config ~data_delay:(Ba_channel.Dist.Constant 50)
      ~ack_delay:(Ba_channel.Dist.Constant 50) ~deadline:3_000 ~on_setup:lose_first ()
  in
  assert r.completed;
  Ba_trace.Tracer.render tracer

let () =
  Printf.printf
    "Transfer of %d messages; the single block ack covering them is lost.\n\
     rto = %d ticks, one-way delay 50 ticks, receiver coalesces acks for 20 ticks.\n\n"
    block rto;
  let simple_trace = run_one Blockack.Protocols.simple in
  print_endline "--- Section II sender: one timer, resend the window base ---";
  print_string simple_trace;
  print_endline
    "Each timeout recovers ONE message (the duplicate ack only advances na by one),\n\
     so the lost block costs about block * rto ticks.\n";
  let multi_trace = run_one Blockack.Protocols.multi in
  print_endline "--- Section IV sender: a timer per outstanding message ---";
  print_string multi_trace;
  print_endline
    "All timers expire together: the whole block is retransmitted back-to-back and\n\
     re-acknowledged within one round trip — recovery costs about rto ticks total."
