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

  let sa = Ba_util.Counters.get (Blockack.Duplex.counters (Blockack.Duplex.a d)) in
  let sb = Ba_util.Counters.get (Blockack.Duplex.counters (Blockack.Duplex.b d)) in
  Printf.printf
    "\ndelivered %d/%d in order, exactly once\n\
     simulated time: %d ticks\n\
     data frames sent: %d (of which %d retransmissions)\n\
     block acknowledgments sent: %d\n"
    (sb Delivered) (sa Messages)
    (Ba_sim.Engine.now (Blockack.Duplex.engine d))
    (sa Data_sent) (sa Retransmissions)
    (sb Acks_sent + sb Piggybacked_acks);
  assert (Blockack.Duplex.idle d);
  print_endline "ok: every message arrived despite loss and reorder"
