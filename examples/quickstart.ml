(* Quickstart: reliable in-order delivery over a lossy, reordering link
   in a dozen lines, using a one-way Duplex session.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* A simulated session: 10% loss each way, delays jittering between
     40 and 60 ticks (so later messages can overtake earlier ones). A
     sends, B is the application; with no hold, B acknowledges at once. *)
  let received = ref 0 in
  let d =
    Blockack.Duplex.create ~seed:7 ~loss:0.1 ~piggyback_hold:0
      ~on_receive_a:(fun _ -> ())
      ~on_receive_b:(fun msg ->
        incr received;
        if !received <= 5 || !received mod 25 = 0 then
          Printf.printf "  received %S\n" msg)
      ()
  in
  for i = 1 to 100 do
    Blockack.Duplex.send (Blockack.Duplex.a d) (Printf.sprintf "message #%03d" i)
  done;
  Blockack.Duplex.run d;

  let sa = Blockack.Duplex.stats (Blockack.Duplex.a d) in
  let sb = Blockack.Duplex.stats (Blockack.Duplex.b d) in
  Printf.printf
    "\ndelivered %d/%d in order, exactly once\n\
     simulated time: %d ticks\n\
     data frames sent: %d (of which %d retransmissions)\n\
     block acknowledgments sent: %d\n"
    sb.Blockack.Duplex.delivered sa.Blockack.Duplex.submitted
    (Ba_sim.Engine.now (Blockack.Duplex.engine d))
    sa.Blockack.Duplex.data_frames sa.Blockack.Duplex.retransmissions
    (sb.Blockack.Duplex.pure_ack_frames + sb.Blockack.Duplex.piggybacked_acks);
  assert (Blockack.Duplex.idle d);
  print_endline "ok: every message arrived despite loss and reorder"
