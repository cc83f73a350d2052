(* Chat: a paced two-way conversation over a Duplex session, showing
   piggybacked block acknowledgments paying the ack cost almost for free.

   Run with: dune exec examples/chat.exe *)

let lines_a =
  [| "hey, did the block-ack paper reproduce?";
     "nice - invariants too?";
     "what about n = 2w-1?";
     "and bounded go-back-N?";
     "classic. ship it." |]

let lines_b =
  [| "yes - all six specs verify, 6-8 hold everywhere";
     "progress too: every state completes loss-free";
     "the checker finds the aliasing counterexample";
     "breaks exactly like the introduction says";
     "done." |]

let () =
  print_endline "A two-way chat over lossy links (10% each way), acks piggybacked:\n";
  let d =
    Blockack.Duplex.create ~seed:12 ~loss:0.1 ~piggyback_hold:120
      ~on_receive_a:(fun m -> Printf.printf "  B: %s\n" m)
      ~on_receive_b:(fun m -> Printf.printf "  A: %s\n" m)
      ()
  in
  let engine = Blockack.Duplex.engine d in
  Array.iteri
    (fun i line ->
      Ba_sim.Engine.schedule engine ~delay:(200 * ((2 * i) + 1)) (fun () ->
          Blockack.Duplex.send (Blockack.Duplex.a d) line);
      Ba_sim.Engine.schedule engine ~delay:(200 * ((2 * i) + 2)) (fun () ->
          Blockack.Duplex.send (Blockack.Duplex.b d) lines_b.(i)))
    lines_a;
  Blockack.Duplex.run d;
  assert (Blockack.Duplex.idle d);
  let both = Blockack.Duplex.counters (Blockack.Duplex.a d) in
  Ba_util.Counters.merge_into both (Blockack.Duplex.counters (Blockack.Duplex.b d));
  let n = Ba_util.Counters.get both in
  Printf.printf
    "\nall %d messages delivered in order despite loss.\n\
     frames: %d data, %d pure-ack, %d acks piggybacked on data.\n"
    (n Delivered) (n Data_sent) (n Acks_sent) (n Piggybacked_acks)
