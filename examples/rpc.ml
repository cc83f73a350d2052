(* Request/response RPC over two block-acknowledgment connections.

   A client issues requests; a server computes answers; each direction is
   its own simulated lossy, reordering link pair (the paper's protocol is
   unidirectional, so a full duplex session is simply two of them glued
   back to back — exactly how the paper intends it to be composed).
   Measures end-to-end RPC latency including all retransmissions.

   Run with: dune exec examples/rpc.exe *)

let requests = 200

let () =
  Printf.printf
    "%d RPCs over two block-ack connections; each direction has 10%% loss and\n\
     40-60 tick delays (reordering). Every response must match its request.\n\n"
    requests;
  (* Both directions must live on one engine so time is shared. The
     Connection facade owns its engine, so here we compose the raw
     endpoints instead — which is also a nice tour of the lower API. *)
  let engine = Ba_sim.Engine.create ~seed:77 () in
  let config = Blockack.Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:60 () in
  let delay = Ba_channel.Dist.Uniform (40, 60) in

  (* Forward path: client -> server. *)
  let fwd_receiver = ref None in
  let fwd_data =
    Ba_channel.Link.create engine ~loss:0.1 ~delay
      ~deliver:(fun d -> Option.iter (fun r -> Blockack.Receiver.on_data r d) !fwd_receiver)
      ()
  in
  let fwd_sender_cell = ref None in
  let fwd_ack =
    Ba_channel.Link.create engine ~loss:0.1 ~delay
      ~deliver:(fun a -> Option.iter (fun s -> Blockack.Sender_multi.on_ack s a) !fwd_sender_cell)
      ()
  in
  (* Reverse path: server -> client. *)
  let rev_receiver = ref None in
  let rev_data =
    Ba_channel.Link.create engine ~loss:0.1 ~delay
      ~deliver:(fun d -> Option.iter (fun r -> Blockack.Receiver.on_data r d) !rev_receiver)
      ()
  in
  let rev_sender_cell = ref None in
  let rev_ack =
    Ba_channel.Link.create engine ~loss:0.1 ~delay
      ~deliver:(fun a -> Option.iter (fun s -> Blockack.Sender_multi.on_ack s a) !rev_sender_cell)
      ()
  in

  let client_outbox = Queue.create () and server_outbox = Queue.create () in
  let fwd_sender =
    Blockack.Sender_multi.create engine config
      ~tx:(Ba_channel.Link.send fwd_data)
      ~next_payload:(fun () -> Queue.take_opt client_outbox)
  in
  let rev_sender =
    Blockack.Sender_multi.create engine config
      ~tx:(Ba_channel.Link.send rev_data)
      ~next_payload:(fun () -> Queue.take_opt server_outbox)
  in
  fwd_sender_cell := Some fwd_sender;
  rev_sender_cell := Some rev_sender;

  (* Server: parse "square <i>", respond "<i> <i*i>". *)
  let server_handled = ref 0 in
  fwd_receiver :=
    Some
      (Blockack.Receiver.create engine config
         ~tx:(Ba_channel.Link.send fwd_ack)
         ~deliver:(fun req ->
           incr server_handled;
           match String.split_on_char ' ' req with
           | [ "square"; n ] ->
               let i = int_of_string n in
               Queue.add (Printf.sprintf "%d %d" i (i * i)) server_outbox;
               Blockack.Sender_multi.pump rev_sender
           | _ -> failwith ("bad request: " ^ req)));

  (* Client: track issue times, validate answers, measure latency. *)
  let issue_time = Hashtbl.create 97 in
  let latencies = Ba_util.Stats.create () in
  let answered = ref 0 in
  rev_receiver :=
    Some
      (Blockack.Receiver.create engine config
         ~tx:(Ba_channel.Link.send rev_ack)
         ~deliver:(fun resp ->
           match String.split_on_char ' ' resp with
           | [ n; squared ] ->
               let i = int_of_string n in
               assert (int_of_string squared = i * i);
               let t0 = Hashtbl.find issue_time i in
               Ba_util.Stats.add latencies (float_of_int (Ba_sim.Engine.now engine - t0));
               incr answered;
               if !answered >= requests then Ba_sim.Engine.stop engine
           | _ -> failwith ("bad response: " ^ resp)));

  (* Issue requests in bursts of 10 every 200 ticks. *)
  for burst = 0 to (requests / 10) - 1 do
    Ba_sim.Engine.schedule engine ~delay:(burst * 200) (fun () ->
        for k = 0 to 9 do
          let i = (burst * 10) + k in
          Hashtbl.replace issue_time i (Ba_sim.Engine.now engine);
          Queue.add (Printf.sprintf "square %d" i) client_outbox
        done;
        Blockack.Sender_multi.pump fwd_sender)
  done;
  Ba_sim.Engine.run ~until:10_000_000 engine;

  Printf.printf "answered %d/%d RPCs correctly (server handled %d requests)\n" !answered
    requests !server_handled;
  let s = Ba_util.Stats.summary latencies in
  Format.printf "RPC latency (ticks): %a@." Ba_util.Stats.pp_summary s;
  Printf.printf
    "\n(One round trip is ~100 ticks — the minimum above. Everything beyond that is\n\
     head-of-line blocking: both directions deliver strictly in order, so each lost\n\
     message stalls everything issued after it for about one rto. Set the losses to\n\
     0.0 and the whole distribution collapses to ~100.)\n";
  assert (!answered = requests)
