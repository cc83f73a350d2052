(* File transfer: chunk a document into fixed-size segments, ship it over
   a bad link with the block-acknowledgment protocol, reassemble and
   verify integrity byte for byte.

   This is the workload the paper's abstract machinery exists for:
   sequence numbers keep segments in order, block acks keep the pipe
   full, bounded wire numbers keep the header small.

   Run with: dune exec examples/file_transfer.exe *)

let chunk_size = 64

(* A deterministic pseudo-document. *)
let document =
  let b = Buffer.create 65536 in
  let rng = Ba_util.Rng.create 2024 in
  let words = [| "window"; "protocol"; "block"; "acknowledgment"; "sequence";
                 "number"; "sender"; "receiver"; "channel"; "timeout" |] in
  for i = 1 to 4000 do
    Buffer.add_string b words.(Ba_util.Rng.int rng (Array.length words));
    Buffer.add_char b (if i mod 12 = 0 then '\n' else ' ')
  done;
  Buffer.contents b

let chunks_of s =
  let n = (String.length s + chunk_size - 1) / chunk_size in
  List.init n (fun i ->
      String.sub s (i * chunk_size) (min chunk_size (String.length s - (i * chunk_size))))

let () =
  let chunks = chunks_of document in
  let total = List.length chunks in
  Printf.printf "transferring %d bytes as %d segments of <=%d bytes\n"
    (String.length document) total chunk_size;
  Printf.printf "link: 8%% loss each way, delay 40-80 ticks (reordering)\n\n";

  let reassembled = Buffer.create (String.length document) in
  let delivered = ref 0 in
  (* A one-way session: A ships the segments, B reassembles them. *)
  let d =
    Blockack.Duplex.create ~seed:99
      ~config:(Blockack.Config.make ~window:32 ~rto:300 ~wire_modulus:(Some 64) ~max_transit:80 ())
      ~piggyback_hold:0 ~loss:0.08
      ~delay:(Ba_channel.Dist.Uniform (40, 80))
      ~on_receive_a:(fun _ -> ())
      ~on_receive_b:(fun segment ->
        Buffer.add_string reassembled segment;
        incr delivered;
        if !delivered mod (max 1 (total / 10)) = 0 then
          Printf.printf "  progress: %3d%% (%d/%d segments)\n" (100 * !delivered / total)
            !delivered total)
      ()
  in
  List.iter (Blockack.Duplex.send (Blockack.Duplex.a d)) chunks;
  Blockack.Duplex.run d;

  let sa = Ba_util.Counters.get (Blockack.Duplex.counters (Blockack.Duplex.a d)) in
  let sb = Ba_util.Counters.get (Blockack.Duplex.counters (Blockack.Duplex.b d)) in
  let acks = sb Acks_sent + sb Piggybacked_acks in
  Printf.printf "\ntransfer complete at tick %d\n"
    (Ba_sim.Engine.now (Blockack.Duplex.engine d));
  Printf.printf "segments sent: %d (%d retransmissions)\n" (sa Data_sent)
    (sa Retransmissions);
  Printf.printf "block acks: %d (%.2f segments acknowledged per ack)\n" acks
    (float_of_int total /. float_of_int (max 1 acks));
  if String.equal (Buffer.contents reassembled) document then
    print_endline "integrity check: reassembled document is byte-identical"
  else begin
    print_endline "INTEGRITY FAILURE";
    exit 1
  end
