(* Request/response RPC over one duplex block-acknowledgment session.

   A client (endpoint A) issues requests; a server (endpoint B) computes
   answers. The paper's protocol is unidirectional, so the session runs
   one instance each way over its own lossy, reordering link; with no
   piggyback hold every acknowledgment travels at once in its own frame,
   as in two connections glued back to back. Measures end-to-end RPC
   latency including all retransmissions.

   Run with: dune exec examples/rpc.exe *)

let requests = 200

let () =
  Printf.printf
    "%d RPCs over one block-ack duplex session; each direction has 10%% loss and\n\
     40-60 tick delays (reordering). Every response must match its request.\n\n"
    requests;
  let config = Blockack.Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:60 () in
  let server_handled = ref 0 in
  let issue_time = Hashtbl.create 97 in
  let latencies = Ba_util.Stats.create requests in
  let answered = ref 0 in
  (* The callbacks answer and take the time through the session they
     belong to, hence the lazy knot. *)
  let rec session =
    lazy
      (Blockack.Duplex.create ~seed:77 ~config ~piggyback_hold:0 ~loss:0.1
         ~delay:(Ba_channel.Dist.Uniform (40, 60))
         (* Server: parse "square <i>", respond "<i> <i*i>". *)
         ~on_receive_b:(fun req ->
           incr server_handled;
           match String.split_on_char ' ' req with
           | [ "square"; n ] ->
               let i = int_of_string n in
               Blockack.Duplex.send
                 (Blockack.Duplex.b (Lazy.force session))
                 (Printf.sprintf "%d %d" i (i * i))
           | _ -> failwith ("bad request: " ^ req))
         (* Client: validate answers, measure latency. *)
         ~on_receive_a:(fun resp ->
           match String.split_on_char ' ' resp with
           | [ n; squared ] ->
               let i = int_of_string n in
               assert (int_of_string squared = i * i);
               let now = Ba_sim.Engine.now (Blockack.Duplex.engine (Lazy.force session)) in
               Ba_util.Stats.add latencies (now - Hashtbl.find issue_time i);
               incr answered
           | _ -> failwith ("bad response: " ^ resp))
         ())
  in
  let d = Lazy.force session in
  let engine = Blockack.Duplex.engine d in
  (* Issue requests in bursts of 10 every 200 ticks. *)
  for burst = 0 to (requests / 10) - 1 do
    Ba_sim.Engine.schedule engine ~delay:(burst * 200) (fun () ->
        for k = 0 to 9 do
          let i = (burst * 10) + k in
          Hashtbl.replace issue_time i (Ba_sim.Engine.now engine);
          Blockack.Duplex.send (Blockack.Duplex.a d) (Printf.sprintf "square %d" i)
        done)
  done;
  Blockack.Duplex.run d;

  Printf.printf "answered %d/%d RPCs correctly (server handled %d requests)\n" !answered
    requests !server_handled;
  let s = Ba_util.Stats.summary latencies in
  Format.printf "RPC latency (ticks): %a@." Ba_util.Stats.pp_summary s;
  Printf.printf
    "\n(One round trip is ~100 ticks — the minimum above. Everything beyond that is\n\
     head-of-line blocking: both directions deliver strictly in order, so each lost\n\
     message stalls everything issued after it for about one rto. Set the losses to\n\
     0.0 and the whole distribution collapses to ~100.)\n";
  assert (!answered = requests && Blockack.Duplex.idle d)
