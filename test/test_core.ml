(* Unit tests for the blockack core library: codec, sender, receiver,
   per-message-timer sender, window guard, configuration and workload. The sender/receiver tests wire the endpoints to
   hand-rolled transmit functions so every wire interaction is visible. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Engine = Ba_sim.Engine
module Wire = Ba_proto.Wire
module Config = Blockack.Config
module Seqcodec = Blockack.Seqcodec

let ack_t = Alcotest.testable Wire.pp_ack ( = )

(* ------------------------------------------------------------------ *)
(* Proto_config *)

let test_config_defaults () =
  let c = Config.default in
  check Alcotest.int "window" 16 c.Config.window;
  check Alcotest.bool "unbounded wire" true (c.Config.wire_modulus = None)

let test_config_validation () =
  Alcotest.check_raises "bad window" (Invalid_argument "Proto_config: window must be positive")
    (fun () -> ignore (Config.make ~window:0 ()));
  Alcotest.check_raises "bad modulus" (Invalid_argument "Proto_config: wire modulus 8 < window+1=9")
    (fun () -> ignore (Config.make ~window:8 ~wire_modulus:(Some 8) ()));
  ignore (Config.make ~window:8 ~wire_modulus:(Some 9) ())

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_roundtrip () =
  for i = 0 to 50 do
    let p = Ba_proto.Workload.payload ~seed:3 ~size:32 i in
    check (Alcotest.option Alcotest.int) "index roundtrip" (Some i) (Ba_proto.Workload.index_of p);
    check Alcotest.int "size respected" 32 (String.length p)
  done

let test_workload_deterministic () =
  check Alcotest.string "same (seed,i) same payload"
    (Ba_proto.Workload.payload ~seed:9 ~size:40 7)
    (Ba_proto.Workload.payload ~seed:9 ~size:40 7);
  check Alcotest.bool "different i different payload" true
    (Ba_proto.Workload.payload ~seed:9 ~size:40 7 <> Ba_proto.Workload.payload ~seed:9 ~size:40 8)

let test_workload_supplier () =
  let next = Ba_proto.Workload.supplier ~seed:1 ~size:16 ~count:3 in
  let pulled = List.init 3 (fun _ -> next ()) in
  check (Alcotest.list Alcotest.string) "first three"
    (List.init 3 (Ba_proto.Workload.payload ~seed:1 ~size:16))
    pulled;
  let exhausted () =
    match next () with _ -> false | exception Ba_proto.Protocol.Exhausted -> true
  in
  check Alcotest.bool "then exhausted" true (exhausted ());
  check Alcotest.bool "stays exhausted" true (exhausted ())

let test_workload_index_of_garbage () =
  check (Alcotest.option Alcotest.int) "garbage" None (Ba_proto.Workload.index_of "hello");
  check (Alcotest.option Alcotest.int) "truncated" None (Ba_proto.Workload.index_of "m:12")

let prop_workload_roundtrip =
  QCheck.Test.make ~name:"payload index roundtrips for any (seed,size,i)" ~count:300
    QCheck.(triple (int_bound 1000) (int_range 0 64) (int_bound 10_000))
    (fun (seed, size, i) ->
      Ba_proto.Workload.index_of (Ba_proto.Workload.payload ~seed ~size i) = Some i)

(* The payload bytes as the per-byte generator loop draws them: a
   fresh [Rng.create] per payload and one [Rng.int] per filler byte.
   The kernel behind [Workload.payload] must reproduce it exactly. *)
let reference_payload ~seed ~size i =
  let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789" in
  let prefix = Printf.sprintf "m:%d:" i in
  let rng = Ba_util.Rng.create ((seed * 1_000_003) + i) in
  prefix
  ^ String.init
      (max 0 (size - String.length prefix))
      (fun _ -> alphabet.[Ba_util.Rng.int rng (String.length alphabet)])

let test_workload_pinned () =
  List.iter
    (fun (seed, size, i, expected) ->
      check Alcotest.string
        (Printf.sprintf "payload seed %d size %d i %d" seed size i)
        expected
        (Ba_proto.Workload.payload ~seed ~size i))
    [
      (0, 8, 0, "m:0:cv67");
      (9, 40, 7, "m:7:dtxmgm8bzuzumfnqmemq3v6so27s6eysube7");
      (* size below the prefix length: the prefix alone *)
      (5, 3, 123, "m:123:");
      (-7, 24, 3, "m:3:r7yi9y8f9soahrbngdx8");
      (max_int, 20, 42, "m:42:hyd022t3ea437gl");
    ]

let seed_gen = QCheck.(oneof [ int; oneofl [ 0; -1; max_int; min_int; max_int / 3 ] ])

let prop_workload_matches_reference =
  QCheck.Test.make ~name:"payload equals the per-byte Rng.int loop" ~count:300
    QCheck.(triple seed_gen (int_range 0 600) (int_bound 100_000))
    (fun (seed, size, i) ->
      let p = Ba_proto.Workload.payload ~seed ~size i in
      let b = Bytes.make (String.length p + 3) '#' in
      let n = Ba_proto.Workload.write_payload ~seed ~size i b in
      String.equal p (reference_payload ~seed ~size i)
      && Ba_proto.Workload.matches ~seed ~size i p
      && n = String.length p
      && String.equal (Bytes.sub_string b 0 n) p
      && Bytes.sub_string b n 3 = "###")

(* Words the minor heap grows by across [f ()], net of what reading the
   counter itself costs. The minor heap is flushed first, as DESIGN.md's
   allocation-measurement note asks. *)
let minor_words f =
  let delta f =
    Gc.minor ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  f ();
  int_of_float (delta f -. delta ignore)

let sink = ref ""

let test_workload_allocation () =
  let p = Ba_proto.Workload.payload ~seed:4 ~size:512 17 in
  let bad = Bytes.of_string p in
  Bytes.set bad 300 (if p.[300] = 'a' then 'b' else 'a');
  let bad = Bytes.to_string bad in
  (* 512 bytes: 65 words of string body plus the header *)
  check Alcotest.int "payload allocates only its string" 66
    (minor_words (fun () -> sink := Ba_proto.Workload.payload ~seed:4 ~size:512 17));
  let buf = Bytes.create 512 in
  check Alcotest.int "write_payload allocates nothing" 0
    (minor_words (fun () -> ignore (Ba_proto.Workload.write_payload ~seed:4 ~size:512 17 buf)));
  check Alcotest.bool "write_payload writes the payload" true (Bytes.to_string buf = p);
  check Alcotest.int "matches allocates nothing on a match" 0
    (minor_words (fun () -> assert (Ba_proto.Workload.matches ~seed:4 ~size:512 17 p)));
  check Alcotest.int "matches allocates nothing on a mismatch" 0
    (minor_words (fun () -> assert (not (Ba_proto.Workload.matches ~seed:4 ~size:512 17 bad))))

let test_workload_matches_rejects_flips () =
  let p = Ba_proto.Workload.payload ~seed:4 ~size:512 17 in
  check Alcotest.bool "accepts the payload" true (Ba_proto.Workload.matches ~seed:4 ~size:512 17 p);
  String.iteri
    (fun k c ->
      let b = Bytes.of_string p in
      Bytes.set b k (Char.chr (Char.code c lxor 1));
      if Ba_proto.Workload.matches ~seed:4 ~size:512 17 (Bytes.to_string b) then
        Alcotest.failf "flip at byte %d accepted" k)
    p;
  let m ~seed ~size i s = Ba_proto.Workload.matches ~seed ~size i s in
  check Alcotest.bool "other index" false (m ~seed:4 ~size:512 18 p);
  check Alcotest.bool "other seed" false (m ~seed:5 ~size:512 17 p);
  check Alcotest.bool "truncated" false (m ~seed:4 ~size:512 17 (String.sub p 0 511));
  check Alcotest.bool "extended" false (m ~seed:4 ~size:512 17 (p ^ "a"));
  check Alcotest.bool "negative index" false (m ~seed:4 ~size:512 (-1) p);
  check Alcotest.bool "prefix only" true (m ~seed:4 ~size:3 123 "m:123:")

(* ------------------------------------------------------------------ *)
(* Seqcodec *)

let test_codec_identity_when_unbounded () =
  let c = Seqcodec.create ~window:4 ~wire_modulus:None in
  check Alcotest.int "encode id" 12345 (Seqcodec.encode c 12345);
  check Alcotest.int "decode id" 777 (Seqcodec.decode_ack c ~na:0 777);
  check Alcotest.int "span" 5 (Seqcodec.span c ~lo:3 ~hi:7);
  check Alcotest.int "shift" 10 (Seqcodec.shift c 7 3)

let test_codec_modular_roundtrip () =
  let w = 4 in
  let c = Seqcodec.create ~window:w ~wire_modulus:(Some (2 * w)) in
  (* Acks decode correctly across the whole legal band [na, na+w). *)
  for na = 0 to 40 do
    for seq = na to na + w - 1 do
      check Alcotest.int "ack roundtrip" seq (Seqcodec.decode_ack c ~na (Seqcodec.encode c seq))
    done
  done;
  (* Data decodes across the receiver band [nr-w, nr+w). *)
  for nr = 0 to 40 do
    for seq = max 0 (nr - w) to nr + w - 1 do
      check Alcotest.int "data roundtrip" seq (Seqcodec.decode_data c ~window:w ~nr (Seqcodec.encode c seq))
    done
  done

let test_codec_rejects_small_modulus () =
  Alcotest.check_raises "n < 2w"
    (Invalid_argument "Seqcodec.create: modulus 7 < 2*window=8 loses information") (fun () ->
      ignore (Seqcodec.create ~window:4 ~wire_modulus:(Some 7)))

let test_codec_span_wraparound () =
  let c = Seqcodec.create ~window:4 ~wire_modulus:(Some 8) in
  check Alcotest.int "wrapping span" 3 (Seqcodec.span c ~lo:7 ~hi:1);
  check Alcotest.int "single" 1 (Seqcodec.span c ~lo:5 ~hi:5);
  check Alcotest.int "shift wraps" 1 (Seqcodec.shift c 7 2)

let prop_codec_stale_acks_land_outside_window =
  (* Any acknowledgment for an already-acknowledged message (below na but
     within one window, as invariant 8 guarantees) must decode outside
     [na, na + w): the sender ignores it rather than mis-marking. *)
  QCheck.Test.make ~name:"stale acks never decode into the window" ~count:1000
    QCheck.(triple (Arb.int_range 1 32) (int_bound 1000) (Arb.int_range 1 32))
    (fun (w, na, age) ->
      QCheck.assume (age <= w && na - age >= 0);
      let c = Seqcodec.create ~window:w ~wire_modulus:(Some (2 * w)) in
      let stale = na - age in
      let decoded = Seqcodec.decode_ack c ~na (Seqcodec.encode c stale) in
      decoded < na || decoded >= na + w)

(* ------------------------------------------------------------------ *)
(* Direct sender/receiver wiring helpers *)

type pipe = {
  engine : Engine.t;
  sent_data : Wire.data Queue.t;  (* captured sender output *)
  sent_acks : Wire.ack Queue.t;  (* captured receiver output *)
  delivered : string Queue.t;
}

let make_pipe () =
  {
    engine = Engine.create ();
    sent_data = Queue.create ();
    sent_acks = Queue.create ();
    delivered = Queue.create ();
  }

let config_w4 = Config.make ~window:4 ~rto:100 ~wire_modulus:(Some 8) ()

let payloads n = Ba_proto.Workload.supplier ~seed:0 ~size:8 ~count:n

let drain q = List.of_seq (Seq.unfold (fun () -> Option.map (fun x -> (x, ())) (Queue.take_opt q)) ())

(* ------------------------------------------------------------------ *)
(* Sender (Section II) *)

let test_sender_pump_fills_window () =
  let p = make_pipe () in
  let s =
    Blockack.Sender.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 10)
  in
  Blockack.Sender.pump s;
  check Alcotest.int "window filled" 4 (Queue.length p.sent_data);
  check Alcotest.int "outstanding" 4 (Blockack.Sender.outstanding s);
  check Alcotest.int "ns" 4 (Blockack.Sender.ns s);
  check Alcotest.int "na" 0 (Blockack.Sender.na s);
  check Alcotest.bool "not done" false (Blockack.Sender.is_done s)

let test_sender_block_ack_advances () =
  let p = make_pipe () in
  let s =
    Blockack.Sender.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 10)
  in
  Blockack.Sender.pump s;
  Queue.clear p.sent_data;
  (* One block ack covers 0..2; the window slides and refills. *)
  Blockack.Sender.on_ack s (Wire.make_ack ~lo:(0) ~hi:(2));
  check Alcotest.int "na" 3 (Blockack.Sender.na s);
  check Alcotest.int "refilled" 3 (Queue.length p.sent_data);
  check Alcotest.int "ns" 7 (Blockack.Sender.ns s)

let test_sender_out_of_order_ack_blocks () =
  let p = make_pipe () in
  let s =
    Blockack.Sender.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 10)
  in
  Blockack.Sender.pump s;
  (* Ack for 2..3 arrives before the ack for 0..1: na must not move. *)
  Blockack.Sender.on_ack s (Wire.make_ack ~lo:(Seqcodec.encode (Seqcodec.create ~window:4 ~wire_modulus:(Some 8)) 2) ~hi:(3));
  check Alcotest.int "na blocked" 0 (Blockack.Sender.na s);
  Blockack.Sender.on_ack s (Wire.make_ack ~lo:(0) ~hi:(1));
  check Alcotest.int "na jumps over the gap" 4 (Blockack.Sender.na s)

let test_sender_duplicate_ack_ignored () =
  let p = make_pipe () in
  let s =
    Blockack.Sender.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 10)
  in
  Blockack.Sender.pump s;
  Blockack.Sender.on_ack s (Wire.make_ack ~lo:(0) ~hi:(1));
  let na = Blockack.Sender.na s in
  (* The same ack again: already below na, must be a no-op. *)
  Blockack.Sender.on_ack s (Wire.make_ack ~lo:(0) ~hi:(1));
  check Alcotest.int "na unchanged" na (Blockack.Sender.na s)

let test_sender_timeout_resends_na () =
  let p = make_pipe () in
  let s =
    Blockack.Sender.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 4)
  in
  Blockack.Sender.pump s;
  Queue.clear p.sent_data;
  Engine.run ~until:150 p.engine;
  let resent = drain p.sent_data in
  check Alcotest.int "exactly one retransmission" 1 (List.length resent);
  check Alcotest.int "it is na" 0 (List.hd resent).Wire.seq;
  check Alcotest.int "counted" 1 (Blockack.Sender.retransmissions s)

let test_sender_timer_stops_when_idle () =
  let p = make_pipe () in
  let s =
    Blockack.Sender.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 2)
  in
  Blockack.Sender.pump s;
  Blockack.Sender.on_ack s (Wire.make_ack ~lo:(0) ~hi:(1));
  check Alcotest.bool "done" true (Blockack.Sender.is_done s);
  Queue.clear p.sent_data;
  Engine.run ~until:1_000 p.engine;
  check Alcotest.int "no spurious retransmission" 0 (Queue.length p.sent_data)

let test_sender_wire_encoding () =
  let p = make_pipe () in
  let s =
    Blockack.Sender.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 10)
  in
  Blockack.Sender.pump s;
  Blockack.Sender.on_ack s (Wire.make_ack ~lo:(0) ~hi:(3));
  let wires = List.map (fun d -> d.Wire.seq) (drain p.sent_data) in
  (* Sequences 0..7 modulo 8. *)
  check (Alcotest.list Alcotest.int) "mod-8 wire numbers" [ 0; 1; 2; 3; 4; 5; 6; 7 ] wires

(* ------------------------------------------------------------------ *)
(* Receiver *)

let make_receiver ?(config = config_w4) p =
  Blockack.Receiver.create p.engine config
    ~tx:(fun a -> Queue.add a p.sent_acks)
    ~deliver:(fun m -> Queue.add m p.delivered)

let data ~seq i = Wire.make_data ~seq ~payload:(Ba_proto.Workload.payload ~seed:0 ~size:8 i)

let test_receiver_in_order () =
  let p = make_pipe () in
  let r = make_receiver p in
  Blockack.Receiver.on_data r (data ~seq:0 0);
  Blockack.Receiver.on_data r (data ~seq:1 1);
  check Alcotest.int "two delivered" 2 (Queue.length p.delivered);
  check (Alcotest.list ack_t) "one ack per message"
    [ (Wire.make_ack ~lo:(0) ~hi:(0)); (Wire.make_ack ~lo:(1) ~hi:(1)) ]
    (drain p.sent_acks);
  check Alcotest.int "nr" 2 (Blockack.Receiver.nr r)

let test_receiver_buffers_out_of_order () =
  let p = make_pipe () in
  let r = make_receiver p in
  Blockack.Receiver.on_data r (data ~seq:2 2);
  Blockack.Receiver.on_data r (data ~seq:1 1);
  check Alcotest.int "nothing delivered yet" 0 (Queue.length p.delivered);
  check Alcotest.int "no ack yet" 0 (Queue.length p.sent_acks);
  check Alcotest.int "buffered" 2 (Blockack.Receiver.buffered r);
  Blockack.Receiver.on_data r (data ~seq:0 0);
  check Alcotest.int "all delivered in order" 3 (Queue.length p.delivered);
  check (Alcotest.list ack_t) "one block ack covers the run" [ (Wire.make_ack ~lo:(0) ~hi:(2)) ]
    (drain p.sent_acks);
  check
    (Alcotest.list Alcotest.string)
    "application order"
    [
      Ba_proto.Workload.payload ~seed:0 ~size:8 0;
      Ba_proto.Workload.payload ~seed:0 ~size:8 1;
      Ba_proto.Workload.payload ~seed:0 ~size:8 2;
    ]
    (drain p.delivered)

let test_receiver_dup_of_accepted_is_reacked () =
  let p = make_pipe () in
  let r = make_receiver p in
  Blockack.Receiver.on_data r (data ~seq:0 0);
  Queue.clear p.sent_acks;
  Blockack.Receiver.on_data r (data ~seq:0 0);
  check Alcotest.int "not redelivered" 1 (Queue.length p.delivered);
  check (Alcotest.list ack_t) "singleton re-ack" [ (Wire.make_ack ~lo:(0) ~hi:(0)) ] (drain p.sent_acks);
  check Alcotest.int "dup counter" 1 (Blockack.Receiver.dup_acks_sent r)

let test_receiver_dup_of_buffered_is_silent () =
  let p = make_pipe () in
  let r = make_receiver p in
  Blockack.Receiver.on_data r (data ~seq:2 2);
  Blockack.Receiver.on_data r (data ~seq:2 2);
  check Alcotest.int "no acks for unackable dup" 0 (Queue.length p.sent_acks);
  check Alcotest.int "buffered once" 1 (Blockack.Receiver.buffered r)

let test_receiver_modular_wraparound () =
  let p = make_pipe () in
  let r = make_receiver p in
  (* Push nr to 6, then deliver wire numbers that wrap past the modulus. *)
  for i = 0 to 9 do
    Blockack.Receiver.on_data r (data ~seq:(i mod 8) i)
  done;
  check Alcotest.int "all ten delivered" 10 (Queue.length p.delivered);
  check Alcotest.int "nr" 10 (Blockack.Receiver.nr r)

let test_receiver_coalesce () =
  let p = make_pipe () in
  let config = Config.make ~window:4 ~rto:200 ~wire_modulus:(Some 8) ~ack_coalesce:10 () in
  let r = make_receiver ~config p in
  Blockack.Receiver.on_data r (data ~seq:0 0);
  Blockack.Receiver.on_data r (data ~seq:1 1);
  Blockack.Receiver.on_data r (data ~seq:2 2);
  check Alcotest.int "acks held back" 0 (Queue.length p.sent_acks);
  Engine.run ~until:20 p.engine;
  check (Alcotest.list ack_t) "one coalesced block" [ (Wire.make_ack ~lo:(0) ~hi:(2)) ]
    (drain p.sent_acks);
  check Alcotest.int "all delivered at flush" 3 (Queue.length p.delivered)

(* Bounded reassembly (Jain's two drop policies). The budget counts only
   out-of-order slots — the committed run [nr, vr) is never evictable —
   and a refused or evicted frame is never acknowledged, so no block
   acknowledgment (m, n) may cover it until a retransmission lands. *)
let budget_config policy =
  Config.make ~window:4 ~rto:100 ~wire_modulus:(Some 8) ~rx_budget:2 ~drop_policy:policy ()

let test_receiver_drop_new_refuses_newcomer () =
  let p = make_pipe () in
  let r = make_receiver ~config:(budget_config Config.Drop_new) p in
  Blockack.Receiver.on_data r (data ~seq:1 1);
  Blockack.Receiver.on_data r (data ~seq:2 2);
  check Alcotest.int "budget filled" 2 (Blockack.Receiver.buffered r);
  Blockack.Receiver.on_data r (data ~seq:3 3);
  check Alcotest.int "newcomer refused" 2 (Blockack.Receiver.buffered r);
  check Alcotest.int "refusal counted" 1 (Blockack.Receiver.pressure_dropped r);
  check Alcotest.int "no ack for the refused frame" 0 (Queue.length p.sent_acks);
  (* The run-extender closes the gap: the block ack covers exactly the
     delivered run and never the refused slot 3. *)
  Blockack.Receiver.on_data r (data ~seq:0 0);
  check (Alcotest.list ack_t) "block ack stops at the drop" [ Wire.make_ack ~lo:0 ~hi:2 ]
    (drain p.sent_acks);
  check Alcotest.int "run delivered" 3 (Queue.length p.delivered);
  (* The sender's timer retransmits the victim; only then is it acked. *)
  Blockack.Receiver.on_data r (data ~seq:3 3);
  check (Alcotest.list ack_t) "retransmission acked" [ Wire.make_ack ~lo:3 ~hi:3 ]
    (drain p.sent_acks);
  check Alcotest.int "nr caught up" 4 (Blockack.Receiver.nr r)

let test_receiver_drop_furthest_evicts () =
  let p = make_pipe () in
  let r = make_receiver ~config:(budget_config Config.Drop_furthest) p in
  Blockack.Receiver.on_data r (data ~seq:3 3);
  Blockack.Receiver.on_data r (data ~seq:2 2);
  Blockack.Receiver.on_data r (data ~seq:1 1);
  check Alcotest.int "still at budget" 2 (Blockack.Receiver.buffered r);
  check Alcotest.int "furthest evicted" 1 (Blockack.Receiver.pressure_evicted r);
  Blockack.Receiver.on_data r (data ~seq:0 0);
  check (Alcotest.list ack_t) "ack covers the kept prefix, not the evicted slot"
    [ Wire.make_ack ~lo:0 ~hi:2 ] (drain p.sent_acks);
  Blockack.Receiver.on_data r (data ~seq:3 3);
  check (Alcotest.list ack_t) "evicted slot acked only on retransmission"
    [ Wire.make_ack ~lo:3 ~hi:3 ] (drain p.sent_acks)

let test_receiver_drop_furthest_keeps_nearer_frame () =
  let p = make_pipe () in
  let r = make_receiver ~config:(budget_config Config.Drop_furthest) p in
  Blockack.Receiver.on_data r (data ~seq:1 1);
  Blockack.Receiver.on_data r (data ~seq:2 2);
  (* A frame *beyond* everything buffered is the furthest itself: it is
     refused rather than trading away a nearer slot. *)
  Blockack.Receiver.on_data r (data ~seq:3 3);
  check Alcotest.int "refused, nothing evicted" 0 (Blockack.Receiver.pressure_evicted r);
  check Alcotest.int "refusal counted" 1 (Blockack.Receiver.pressure_dropped r)

let test_receiver_run_extender_exempt_from_budget () =
  let p = make_pipe () in
  let config =
    Config.make ~window:4 ~rto:100 ~wire_modulus:(Some 8) ~rx_budget:1
      ~drop_policy:Config.Drop_new ()
  in
  let r = make_receiver ~config p in
  Blockack.Receiver.on_data r (data ~seq:1 1);
  check Alcotest.int "budget of one filled" 1 (Blockack.Receiver.buffered r);
  (* v = vr extends the deliverable run: admitting it *frees* a slot, so
     refusing it would livelock drop-new at full budget. *)
  Blockack.Receiver.on_data r (data ~seq:0 0);
  check Alcotest.int "run extender admitted" 2 (Queue.length p.delivered);
  check Alcotest.int "no refusal" 0 (Blockack.Receiver.pressure_dropped r)

let test_receiver_flush_forces_pending () =
  let p = make_pipe () in
  let config = Config.make ~window:4 ~rto:200 ~wire_modulus:(Some 8) ~ack_coalesce:1_000 () in
  let r = make_receiver ~config p in
  Blockack.Receiver.on_data r (data ~seq:0 0);
  Blockack.Receiver.flush r;
  check Alcotest.int "flushed" 1 (Queue.length p.sent_acks);
  Engine.run ~until:2_000 p.engine;
  check Alcotest.int "no double flush" 1 (Queue.length p.sent_acks)

(* ------------------------------------------------------------------ *)
(* Sender_multi (Section IV) *)

let test_multi_individual_timers () =
  let p = make_pipe () in
  let s =
    Blockack.Sender_multi.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 4)
  in
  Blockack.Sender_multi.pump s;
  Queue.clear p.sent_data;
  (* Ack only message 1: timers 0, 2, 3 stay armed; 1's is cancelled. *)
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(1) ~hi:(1));
  Engine.run ~until:150 p.engine;
  let resent = List.map (fun d -> d.Wire.seq) (drain p.sent_data) in
  check (Alcotest.list Alcotest.int) "burst resend of unacked" [ 0; 2; 3 ] resent;
  check Alcotest.int "three retransmissions" 3 (Blockack.Sender_multi.retransmissions s)

let test_multi_lost_block_ack_recovery_is_burst () =
  (* All four are outstanding and their (lost) acks never arrive: all four
     timers fire within one timeout period — not serialized. *)
  let p = make_pipe () in
  let s =
    Blockack.Sender_multi.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 4)
  in
  Blockack.Sender_multi.pump s;
  Queue.clear p.sent_data;
  Engine.run ~until:101 p.engine;
  check Alcotest.int "all four resent within one rto" 4 (Queue.length p.sent_data)

let test_multi_ack_stops_timer () =
  let p = make_pipe () in
  let s =
    Blockack.Sender_multi.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 2)
  in
  Blockack.Sender_multi.pump s;
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(0) ~hi:(1));
  Queue.clear p.sent_data;
  Engine.run ~until:1_000 p.engine;
  check Alcotest.int "no retransmissions after full ack" 0 (Queue.length p.sent_data);
  check Alcotest.bool "done" true (Blockack.Sender_multi.is_done s)

let test_multi_done_only_when_exhausted_and_acked () =
  let p = make_pipe () in
  let s =
    Blockack.Sender_multi.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 6)
  in
  Blockack.Sender_multi.pump s;
  check Alcotest.bool "not done while outstanding" false (Blockack.Sender_multi.is_done s);
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(0) ~hi:(3));
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(4) ~hi:(5));
  check Alcotest.bool "done after final ack" true (Blockack.Sender_multi.is_done s)

(* Action 2′ runs on one engine slot per sender: the whole window's
   timers are a single pending event, their same-tick expiries resend in
   sequence order, and a crash leaves nothing scheduled. *)
let test_multi_one_timer_event () =
  let p = make_pipe () in
  let sent = Queue.create () in
  let s =
    Blockack.Sender_multi.create p.engine config_w4
      ~tx:(fun d -> Queue.add (Engine.now p.engine, d.Wire.seq) sent)
      ~next_payload:(payloads 4)
  in
  Blockack.Sender_multi.pump s;
  check Alcotest.int "four outstanding" 4 (Blockack.Sender_multi.outstanding s);
  check Alcotest.int "one timer event for the window" 1 (Engine.pending_events p.engine);
  Queue.clear sent;
  (* The block ack is lost: all four expire on tick 100. *)
  Engine.run ~until:100 p.engine;
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "same-tick expiries resend in seq order"
    [ (100, 0); (100, 1); (100, 2); (100, 3) ]
    (drain sent);
  check Alcotest.int "still one timer event" 1 (Engine.pending_events p.engine);
  Blockack.Sender_multi.crash s;
  check Alcotest.int "crash leaves no timer event" 0 (Engine.pending_events p.engine)

(* ------------------------------------------------------------------ *)
(* Resync handshake retry timing *)

(* A sender and a receiver on a hand-stepped link of 10 ticks each way
   that drops the first two handshake frames (REQ, POS or FIN). Every
   frame put on the link is logged with its send tick and kind. *)
type joined = {
  j_engine : Engine.t;
  j_sender : Blockack.Sender_multi.t;
  j_receiver : Blockack.Receiver.t;
  j_log : (int * string) Queue.t;
}

let join ~messages =
  let engine = Engine.create () in
  let log = Queue.create () in
  let dropped = ref 0 in
  let link kind deliver =
    Queue.add (Engine.now engine, kind) log;
    if kind <> "data" && kind <> "ack" && !dropped < 2 then incr dropped
    else Engine.schedule engine ~delay:10 deliver
  in
  let sender = ref None in
  let receiver =
    Blockack.Receiver.create engine config_w4
      ~tx:(fun a ->
        let kind = match a.Wire.akind with Wire.Ack -> "ack" | Wire.Sync_pos -> "pos" in
        link kind (fun () -> Option.iter (fun s -> Blockack.Sender_multi.on_ack s a) !sender))
      ~deliver:ignore
  in
  let s =
    Blockack.Sender_multi.create engine config_w4
      ~tx:(fun d ->
        let kind =
          match d.Wire.dkind with Wire.Msg -> "data" | Wire.Sync_req -> "req" | Wire.Sync_fin -> "fin"
        in
        link kind (fun () -> Blockack.Receiver.on_data receiver d))
      ~next_payload:(payloads messages)
  in
  sender := Some s;
  { j_engine = engine; j_sender = s; j_receiver = receiver; j_log = log }

(* Transfer [messages] cleanly, then let the link go quiet until tick 500. *)
let joined_at_500 ~messages =
  let j = join ~messages in
  Blockack.Sender_multi.pump j.j_sender;
  Engine.run ~until:500 j.j_engine;
  check Alcotest.bool "transfer done" true (Blockack.Sender_multi.is_done j.j_sender);
  Queue.clear j.j_log;
  j

let handshake_log j = List.filter (fun (_, kind) -> kind <> "data" && kind <> "ack") (drain j.j_log)
let frames_t = Alcotest.(list (pair int string))

(* A restarted receiver announces POS at t, t+rto and t+2rto (the first
   two are lost), and falls silent once the sender's FIN arrives. *)
let test_handshake_receiver_retries_pos () =
  let j = joined_at_500 ~messages:4 in
  Blockack.Receiver.crash j.j_receiver;
  Blockack.Receiver.restart j.j_receiver;
  Engine.run ~until:5_000 j.j_engine;
  check frames_t "POS every rto until FIN"
    [ (500, "pos"); (600, "pos"); (700, "pos"); (710, "fin") ]
    (handshake_log j);
  check Alcotest.bool "receiver stopped syncing" false (Blockack.Receiver.syncing j.j_receiver);
  check Alcotest.int "nothing left scheduled" 0 (Engine.pending_events j.j_engine)

(* A restarted sender asks with REQ at t, t+rto and t+2rto (the first
   two are lost) and stops asking once POS arrives. *)
let test_handshake_sender_retries_req () =
  let j = joined_at_500 ~messages:4 in
  Blockack.Sender_multi.crash j.j_sender;
  Blockack.Sender_multi.restart j.j_sender;
  Engine.run ~until:5_000 j.j_engine;
  check frames_t "REQ every rto until POS"
    [ (500, "req"); (600, "req"); (700, "req"); (710, "pos"); (720, "fin") ]
    (handshake_log j);
  check Alcotest.bool "sender stopped syncing" false (Blockack.Sender_multi.syncing j.j_sender);
  check Alcotest.int "resumed at the receiver's position" 4 (Blockack.Sender_multi.na j.j_sender);
  check Alcotest.int "nothing left scheduled" 0 (Engine.pending_events j.j_engine)

(* A crash before any handshake has no retry timer to stop: it neither
   schedules nor cancels an event. *)
let test_handshake_crash_before_any () =
  let j = join ~messages:4 in
  let pending = Engine.pending_events j.j_engine in
  Blockack.Sender_multi.crash j.j_sender;
  check Alcotest.int "idle sender crash" pending (Engine.pending_events j.j_engine);
  let j = join ~messages:4 in
  Blockack.Sender_multi.pump j.j_sender;
  let pending = Engine.pending_events j.j_engine in
  Blockack.Receiver.crash j.j_receiver;
  check Alcotest.int "receiver crash with data in flight" pending
    (Engine.pending_events j.j_engine)

(* ------------------------------------------------------------------ *)
(* Per-endpoint footprint *)

(* Bytes each of [n] endpoints built by [make] keeps live, from [Gc] live
   words across two full collections — the way [Shard] measures a flow. *)
let live_bytes_per ~n make =
  let live () =
    Ba_util.Column_pool.clear ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let kept = Array.init n (fun _ -> make ()) in
  let after = live () in
  ignore (Sys.opaque_identity kept);
  (after - before) * (Sys.word_size / 8) / n

(* Idle endpoints carry no window slots: the window arrays grow with the
   flight, and the retry and coalescing timers and the window guard are
   built on first use. So the idle figure does not depend on the window
   or on a lead band. *)
let test_endpoint_footprint () =
  let engine = Engine.create () in
  let none () = raise Ba_proto.Protocol.Exhausted in
  List.iter
    (fun (window, lead) ->
      let config = Config.make ~window ~wire_modulus:(Some (2 * lead)) ~ack_coalesce:0 () in
      let receiver =
        live_bytes_per ~n:20_000 (fun () ->
            Blockack.Receiver.create engine config ~tx:ignore ~deliver:ignore)
      in
      let sender =
        live_bytes_per ~n:20_000 (fun () ->
            Blockack.Sender_multi.create ~lead engine config ~tx:ignore ~next_payload:none)
      in
      Printf.printf "w=%d lead=%d: receiver %d B, sender %d B\n%!" window lead receiver sender;
      if receiver > 168 then
        Alcotest.failf "w=%d: receiver keeps %d B, want <= 168" window receiver;
      if sender > 322 then
        Alcotest.failf "w=%d lead=%d: Sender_multi keeps %d B, want <= 322" window lead sender)
    [ (8, 8); (16, 16); (8, 16) ]

(* In flight, a sender holds slots for what it has sent, not for its
   window: with two messages pumped each column has two slots. The
   figure includes the sender's engine slot and its one armed event
   (40 B; [n] is a power of two so the engine's columns hold exactly
   [n] slots and [n] events), and
   the shared budget and payload keep the test's own supplier out of it. *)
let test_flight_footprint () =
  let forever () = "p" in
  List.iter
    (fun (window, lead) ->
      let engine = Engine.create () in
      let config = Config.make ~window ~wire_modulus:(Some (2 * lead)) ~ack_coalesce:0 () in
      let sender =
        live_bytes_per ~n:16_384 (fun () ->
            let s =
              Blockack.Sender_multi.create ~lead engine config ~tx:ignore ~next_payload:forever
            in
            Blockack.Sender_multi.clamp_window s 2;
            Blockack.Sender_multi.pump s;
            s)
      in
      Printf.printf "w=%d lead=%d: two in flight %d B\n%!" window lead sender;
      if sender > 480 then
        Alcotest.failf "w=%d lead=%d: Sender_multi with two in flight keeps %d B, want <= 480"
          window lead sender)
    [ (8, 8); (16, 16); (8, 16) ]

(* A pull hands the payload over as it is, with nothing around it: a
   sender pumping payloads taken from a prebuilt array allocates nothing
   per message once its columns, its outbox and the frame pool are
   warm. Each round has the window acknowledged by one block ack, which
   pulls and sends the next window. *)
let test_pull_allocates_nothing () =
  let w = 8 in
  let payloads = Array.init 64 (fun i -> Ba_proto.Workload.payload ~seed:0 ~size:8 i) in
  let next = ref 0 in
  let supply () =
    let p = payloads.(!next land 63) in
    incr next;
    p
  in
  let module S = Blockack.Sender_multi in
  let s =
    S.create (Engine.create ()) (Config.make ~window:w ~rto:100 ()) ~tx:Wire.release_data
      ~next_payload:supply
  in
  S.pump s;
  let round () =
    let na = S.na s in
    let a = Wire.make_ack ~lo:na ~hi:(na + w - 1) in
    S.on_ack s a;
    Wire.release_ack a
  in
  let pulled = !next in
  check Alcotest.int "100 windows of pulls allocate nothing" 0
    (minor_words (fun () ->
         for _ = 1 to 100 do
           round ()
         done));
  (* [minor_words] runs its function twice. *)
  check Alcotest.int "every round pulled a window" (pulled + (200 * w)) !next

(* Live bytes of a [protocol] pair — engine, both links, both
   endpoints — after it carries [messages] over links that lose 5% each
   way, measured while the pair is still reachable. *)
let pair_live_bytes protocol ~messages =
  let module P = (val protocol : Ba_proto.Protocol.S) in
  let live () =
    Ba_util.Column_pool.clear ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let engine = Engine.create ~seed:5 () in
  let config = Config.make ~window:8 ~rto:100 () in
  let link deliver =
    Ba_channel.Link.create engine ~loss:0.05 ~delay:(Ba_channel.Dist.Constant 10) ~deliver ()
  in
  let sender = ref None and delivered = ref 0 in
  let ack_link = link (fun a -> Option.iter (fun s -> P.sender_on_ack s a) !sender) in
  let receiver =
    P.create_receiver engine config ~tx:(Ba_channel.Link.send ack_link) ~deliver:(fun _ ->
        incr delivered)
  in
  let data_link = link (P.receiver_on_data receiver) in
  let s =
    P.create_sender engine config ~tx:(Ba_channel.Link.send data_link)
      ~next_payload:(payloads messages)
  in
  sender := Some s;
  P.sender_pump s;
  Engine.run ~until:100_000_000 engine;
  if !delivered <> messages || not (P.sender_done s) then
    Alcotest.failf "%s: delivered %d of %d" P.name !delivered messages;
  let after = live () in
  ignore (Sys.opaque_identity (engine, ack_link, data_link, receiver, s));
  (after - before) * (Sys.word_size / 8)

(* A connection's state is bounded by its window, not by the transfer:
   the sender keeps only its unacknowledged outbox, so twenty times the
   messages leave the same live pair behind. *)
let test_state_independent_of_length () =
  List.iter
    (fun protocol ->
      let module P = (val protocol : Ba_proto.Protocol.S) in
      let short = pair_live_bytes protocol ~messages:1_000 in
      let long = pair_live_bytes protocol ~messages:20_000 in
      if abs (long - short) > 1_024 then
        Alcotest.failf "%s: %d B live after 1000 messages, %d B after 20000" P.name short long)
    [
      Blockack.Protocols.multi;
      Ba_baselines.Go_back_n.protocol;
      Ba_baselines.Selective_repeat.protocol;
      Ba_baselines.Stenning.protocol;
      Ba_baselines.Alternating_bit.protocol;
    ]

(* ------------------------------------------------------------------ *)
(* Window arrays sized to the flight *)

(* A lone receiver fed random in-window arrivals, duplicates of
   delivered and of buffered numbers included, for three wraps of the
   wire modulus: it delivers every message exactly once and in order,
   holds exactly the numbers that arrived above [nr], and its buffer,
   grown on demand, never outgrows the window. *)
let prop_receiver_grows_with_arrivals =
  QCheck.Test.make ~name:"receiver buffer grows with arrivals" ~count:300
    QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let w = 1 + Random.State.int rng 24 in
      let modulus =
        match Random.State.int rng 3 with 0 -> None | 1 -> Some (2 * w) | _ -> Some (4 * w)
      in
      let total = 3 * Option.value modulus ~default:(4 * w) in
      let config = Config.make ~window:w ~wire_modulus:modulus ~ack_coalesce:0 () in
      let next = ref 0 in
      let r =
        Blockack.Receiver.create (Engine.create ()) config ~tx:ignore ~deliver:(fun p ->
            if p <> string_of_int !next then
              QCheck.Test.fail_reportf "delivered %S, expected %d" p !next;
            incr next)
      in
      let arrived = Array.make total false in
      let send v =
        arrived.(v) <- true;
        let wire = match modulus with None -> v | Some n -> v mod n in
        Blockack.Receiver.on_data r (Wire.make_data ~seq:wire ~payload:(string_of_int v));
        let nr = Blockack.Receiver.nr r in
        let held = ref 0 in
        for u = nr to min total (nr + w) - 1 do
          if arrived.(u) then incr held
        done;
        if Blockack.Receiver.buffered r <> !held then
          QCheck.Test.fail_reportf "buffered %d, held %d" (Blockack.Receiver.buffered r) !held;
        if Blockack.Receiver.capacity r > w then
          QCheck.Test.fail_reportf "capacity %d > window %d" (Blockack.Receiver.capacity r) w
      in
      while Blockack.Receiver.nr r < total do
        let nr = Blockack.Receiver.nr r in
        let hi = min total (nr + w) in
        if Random.State.int rng 4 = 0 then begin
          (* Any number the receiver can still decode: a duplicate, or fresh. *)
          let lo = max 0 (nr - w) in
          send (lo + Random.State.int rng (hi - lo))
        end
        else begin
          match List.filter (fun v -> not arrived.(v)) (List.init (hi - nr) (( + ) nr)) with
          | [] -> QCheck.Test.fail_reportf "stuck at nr=%d with [%d, %d) all arrived" nr nr hi
          | fresh -> send (List.nth fresh (Random.State.int rng (List.length fresh)))
        end
      done;
      !next = total && Blockack.Receiver.buffered r = 0)

(* A lead-band sender acknowledged in random pieces, so its arrays grow
   while [na] sits anywhere: every retransmission must be of a message
   still unacknowledged, with its own payload, exactly one fixed [rto]
   after that message was last sent, and no unacknowledged message may
   go longer than [rto] unsent. A grow that lost a timer key or placed
   one or a payload in the wrong slot would resend the wrong number,
   resend at the wrong time, never resend, or send the wrong payload. *)
let prop_lead_sender_grows_with_flight =
  QCheck.Test.make ~name:"lead sender resends the right number after a grow" ~count:300
    QCheck.int
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let w = 1 + Random.State.int rng 8 in
      let lead = (2 + Random.State.int rng 2) * w and rto = 100 in
      let modulus = if Random.State.bool rng then Some (2 * lead) else None in
      let encode v = match modulus with None -> v | Some n -> v mod n in
      let total = 6 * lead in
      let config = Config.make ~window:w ~rto ~wire_modulus:modulus () in
      let engine = Engine.create () in
      let issued = ref 0 in
      let next_payload () =
        if !issued = total then raise Ba_proto.Protocol.Exhausted
        else begin
          incr issued;
          string_of_int (!issued - 1)
        end
      in
      let last_sent = Array.make total (-1) and acked = Array.make total false in
      let tx d =
        let now = Engine.now engine in
        let v =
          match int_of_string_opt d.Wire.payload with
          | Some v -> v
          | None -> QCheck.Test.fail_reportf "payload %S at %d" d.Wire.payload now
        in
        if d.Wire.seq <> encode v then
          QCheck.Test.fail_reportf "%d sent as wire %d" v d.Wire.seq;
        if last_sent.(v) >= 0 then begin
          if acked.(v) then QCheck.Test.fail_reportf "resent acknowledged %d at %d" v now;
          if now - last_sent.(v) <> rto then
            QCheck.Test.fail_reportf "resent %d at %d, last sent at %d" v now last_sent.(v)
        end;
        last_sent.(v) <- now
      in
      let s = Blockack.Sender_multi.create ~lead engine config ~tx ~next_payload in
      Blockack.Sender_multi.pump s;
      let steps = ref 0 in
      while (not (Blockack.Sender_multi.is_done s)) && !steps < 10_000 do
        incr steps;
        Engine.run ~until:(Engine.now engine + 1 + Random.State.int rng rto) engine;
        for v = Blockack.Sender_multi.na s to Blockack.Sender_multi.ns s - 1 do
          if (not acked.(v)) && Engine.now engine - last_sent.(v) > rto then
            QCheck.Test.fail_reportf "%d overdue at %d, last sent at %d" v (Engine.now engine)
              last_sent.(v);
          if (not acked.(v)) && Random.State.int rng 3 = 0 then begin
            acked.(v) <- true;
            Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(encode v) ~hi:(encode v))
          end
        done
      done;
      Blockack.Sender_multi.is_done s && Blockack.Sender_multi.na s = total)

(* ------------------------------------------------------------------ *)
(* Wire checksums and corruption handling *)

(* The frame checksum folded a byte at a time: [seq], then — unless the
   frame is an epoch-0 [Msg] — the epoch and the kind tag, then the
   payload in 7-byte little-endian chunks, each built from single byte
   loads. *)
let reference_checksum ~seq ~epoch ~dkind payload =
  let step h w = (h lxor w) * 0x100000001b3 land max_int in
  let n = String.length payload in
  let h = ref (step 0x3bf29ce484222325 (seq land max_int)) in
  (match dkind with
   | Wire.Msg when epoch = 0 -> ()
   | _ ->
       let tag = match dkind with Wire.Msg -> 0 | Wire.Sync_req -> 1 | Wire.Sync_fin -> 2 in
       h := step (step !h (epoch land max_int)) tag);
  let i = ref 0 in
  while !i < n do
    let w = ref 0 in
    for k = 0 to min 7 (n - !i) - 1 do
      w := !w lor (Char.code payload.[!i + k] lsl (8 * k))
    done;
    h := step !h !w;
    i := !i + 7
  done;
  !h

let prop_checksum_matches_bytewise =
  QCheck.Test.make ~name:"data checksum equals the byte-wise fold" ~count:1000
    QCheck.(
      quad (int_bound 1_000_000)
        (oneof [ always 0; int_bound 1_000 ])
        (oneofl [ Wire.Msg; Wire.Sync_req; Wire.Sync_fin ])
        (string_of_size (Gen.int_range 0 700)))
    (fun (seq, epoch, dkind, payload) ->
      Wire.data_checksum ~seq ~payload ~epoch ~dkind
      = reference_checksum ~seq ~epoch ~dkind payload)

(* Checksums recorded from the pure-OCaml fold before the payload loop
   moved to C: a slip in the state's width (62 bits) or the chunks'
   byte order shows up here as a changed literal. *)
let test_wire_checksum_literals () =
  let sum ~seq payload = Wire.data_checksum ~seq ~payload ~epoch:0 ~dkind:Wire.Msg in
  check Alcotest.int "empty payload" 4567702583447238623 (sum ~seq:0 "");
  check Alcotest.int "7-byte payload" 4040575677306420951 (sum ~seq:1 "abcdefg");
  check Alcotest.int "512 B workload payload" 1084769999552614072
    (sum ~seq:17 (Ba_proto.Workload.payload ~seed:4 ~size:512 17));
  check Alcotest.int "sync-req at epoch 3" 2973186199025780719
    (Wire.make_sync_req ~epoch:3).Wire.check

let test_wire_checksum_allocation () =
  let payload = Ba_proto.Workload.payload ~seed:4 ~size:512 17 in
  check Alcotest.int "checksum allocates nothing" 0
    (minor_words (fun () ->
         ignore (Sys.opaque_identity (Wire.data_checksum ~seq:3 ~payload ~epoch:0 ~dkind:Wire.Msg))))

let test_wire_checksum_roundtrip () =
  let d = Wire.make_data ~seq:5 ~payload:"hello" in
  check Alcotest.bool "fresh data ok" true (Wire.data_ok d);
  let a = Wire.make_ack ~lo:3 ~hi:9 in
  check Alcotest.bool "fresh ack ok" true (Wire.ack_ok a)

let test_wire_corruption_detected () =
  let d = Wire.make_data ~seq:5 ~payload:"hello" in
  check Alcotest.bool "mangled payload caught" false (Wire.data_ok (Wire.corrupt_data d));
  let empty = Wire.make_data ~seq:7 ~payload:"" in
  check Alcotest.bool "mangled bare header caught" false (Wire.data_ok (Wire.corrupt_data empty));
  let a = Wire.make_ack ~lo:3 ~hi:9 in
  check Alcotest.bool "mangled ack caught" false (Wire.ack_ok (Wire.corrupt_ack a));
  (* A stale checksum over different content must not validate either. *)
  let forged = { d with Wire.seq = d.Wire.seq + 1 } in
  check Alcotest.bool "forged header caught" false (Wire.data_ok forged)

let test_receiver_drops_corrupt_data () =
  let p = make_pipe () in
  let r =
    Blockack.Receiver.create p.engine config_w4
      ~tx:(fun a -> Queue.add a p.sent_acks)
      ~deliver:(fun m -> Queue.add m p.delivered)
  in
  Blockack.Receiver.on_data r (Wire.corrupt_data (Wire.make_data ~seq:0 ~payload:"AA"));
  check Alcotest.int "nothing delivered" 0 (Queue.length p.delivered);
  check Alcotest.int "nothing acked" 0 (Queue.length p.sent_acks);
  check Alcotest.int "drop counted" 1 (Blockack.Receiver.corrupt_dropped r);
  (* The sender's timer covers the gap: a clean retransmission is then
     accepted as if the corrupted copy never existed. *)
  Blockack.Receiver.on_data r (Wire.make_data ~seq:0 ~payload:"AA");
  check Alcotest.int "clean retransmit delivered" 1 (Queue.length p.delivered);
  check Alcotest.int "and acknowledged" 1 (Queue.length p.sent_acks)

let test_sender_drops_corrupt_ack () =
  let run name (module S : Blockack.Sender_core.S) =
    let p = make_pipe () in
    let s =
      S.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
        ~next_payload:(payloads 4)
    in
    S.pump s;
    S.on_ack s (Wire.corrupt_ack (Wire.make_ack ~lo:0 ~hi:3));
    check Alcotest.int (name ^ ": window not advanced by corrupt ack") 0 (S.na s);
    check Alcotest.int (name ^ ": drop counted") 1 (S.corrupt_acks_dropped s);
    S.on_ack s (Wire.make_ack ~lo:0 ~hi:3);
    check Alcotest.int (name ^ ": clean ack still works") 4 (S.na s)
  in
  run "simple" (module Blockack.Sender);
  (* Sender_multi's [create] also takes a Section VI [?lead]. *)
  run "multi"
    (module struct
      include Blockack.Sender_multi

      let create engine config = create engine config
    end)

(* Without a wire modulus a checksum-valid acknowledgment can carry any
   range. An inverted one must not raise, and a huge one must cost no
   more than the outstanding messages it covers. *)
let test_sender_hostile_ack_range () =
  let run name (module S : Blockack.Sender_core.S) =
    let p = make_pipe () in
    let config = Config.make ~window:8 ~rto:100 () in
    let s =
      S.create p.engine config ~tx:(fun d -> Queue.add d p.sent_data) ~next_payload:(payloads 4)
    in
    S.pump s;
    check Alcotest.int (name ^ ": four outstanding") 4 (S.ns s);
    S.on_ack s (Wire.make_ack ~lo:5 ~hi:2);
    check Alcotest.int (name ^ ": inverted range ignored") 0 (S.na s);
    S.on_ack s (Wire.make_ack ~lo:3 ~hi:1);
    check Alcotest.int (name ^ ": inverted range over the flight ignored") 0 (S.na s);
    S.on_ack s (Wire.make_ack ~lo:(-5) ~hi:1);
    check Alcotest.int (name ^ ": range clipped below na") 2 (S.na s);
    let t0 = Sys.time () in
    S.on_ack s (Wire.make_ack ~lo:0 ~hi:200_000_000);
    let spent = Sys.time () -. t0 in
    check Alcotest.int (name ^ ": huge range acknowledges the flight") 4 (S.na s);
    if spent > 0.05 then Alcotest.failf "%s: huge range took %.3f s" name spent
  in
  run "simple" (module Blockack.Sender);
  run "multi"
    (module struct
      include Blockack.Sender_multi

      let create engine config = create engine config
    end)

(* A checksum-valid POS naming a position the outbox cannot replay from
   — past everything issued, or below the prefix it released once that
   prefix was acknowledged — is dropped, whether it carries a higher
   epoch or arrives in the sender's own epoch while it is syncing. It
   must not raise, must leave [na], [ns] and the epoch alone, and the
   transfer must still complete. *)
let test_sender_hostile_pos () =
  let run name (module S : Blockack.Sender_core.S) =
    let engine = Engine.create () in
    let sender = ref None and delivered = ref 0 in
    let receiver =
      Blockack.Receiver.create engine config_w4
        ~tx:(fun a ->
          Engine.schedule engine ~delay:10 (fun () -> Option.iter (fun s -> S.on_ack s a) !sender))
        ~deliver:(fun _ -> incr delivered)
    in
    let s =
      S.create engine config_w4
        ~tx:(fun d -> Engine.schedule engine ~delay:10 (fun () -> Blockack.Receiver.on_data receiver d))
        ~next_payload:(payloads 40)
    in
    sender := Some s;
    let hostile what ~epoch pos =
      let na = S.na s and ns = S.ns s and e = S.epoch s and dropped = S.corrupt_acks_dropped s in
      S.on_ack s (Wire.make_sync_pos ~epoch ~pos);
      let label field = Printf.sprintf "%s: %s POS %d keeps %s" name what pos field in
      check Alcotest.int (label "na") na (S.na s);
      check Alcotest.int (label "ns") ns (S.ns s);
      check Alcotest.int (label "epoch") e (S.epoch s);
      check Alcotest.int (label "a drop count") (dropped + 1) (S.corrupt_acks_dropped s)
    in
    S.pump s;
    (* The first window is acknowledged and released; the second is out. *)
    Engine.run ~until:25 engine;
    check Alcotest.int (name ^ ": first window acknowledged") 4 (S.na s);
    check Alcotest.int (name ^ ": second window sent") 8 (S.ns s);
    hostile "higher-epoch" ~epoch:(S.epoch s + 1) 1_000_000;
    hostile "higher-epoch" ~epoch:(S.epoch s + 1) 0;
    S.crash s;
    S.restart s;
    check Alcotest.bool (name ^ ": syncing") true (S.syncing s);
    hostile "same-epoch" ~epoch:(S.epoch s) 1_000_000;
    hostile "same-epoch" ~epoch:(S.epoch s) 0;
    hostile "higher-epoch" ~epoch:(S.epoch s + 1) 3;
    check Alcotest.bool (name ^ ": still syncing") true (S.syncing s);
    Engine.run ~until:100_000 engine;
    check Alcotest.bool (name ^ ": transfer completes") true (S.is_done s);
    check Alcotest.int (name ^ ": every message delivered") 40 !delivered
  in
  run "simple" (module Blockack.Sender);
  run "multi"
    (module struct
      include Blockack.Sender_multi

      let create engine config = create engine config
    end)

(* ------------------------------------------------------------------ *)
(* Karn's rule in Sender_multi (both halves) *)

let adaptive_config = Config.make ~window:4 ~rto:100 ~adaptive_rto:true ()

let test_multi_karn_backoff_not_collapse () =
  let p = make_pipe () in
  let s =
    Blockack.Sender_multi.create p.engine adaptive_config
      ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 8)
  in
  Blockack.Sender_multi.pump s;
  (* Four clean samples of rtt = 10 pull the adaptive rto far below the
     configured 100 (unbounded wire numbers have no soundness floor). *)
  Engine.schedule p.engine ~delay:10 (fun () ->
      Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:0 ~hi:3));
  Engine.run ~until:11 p.engine;
  let r0 = Blockack.Sender_multi.rto_now s in
  check Alcotest.bool "estimator adapted below configured rto" true (r0 < 100);
  (* Messages 4..7 (pumped at t = 10) now all expire in one burst with no
     acks in sight. Karn's first half means none of their later acks may
     feed the estimator — so without the second half (backing the shared
     estimate off) the rto would sit at r0 forever. And the backoff is
     gated to the oldest outstanding message: one doubling per burst, not
     2^w. *)
  Engine.run ~until:(10 + r0 + 2) p.engine;
  check Alcotest.int "whole window expired once" 4 (Blockack.Sender_multi.retransmissions s);
  check Alcotest.int "rto doubled exactly once" (2 * r0) (Blockack.Sender_multi.rto_now s)

let test_multi_karn_excludes_retransmit_samples () =
  let p = make_pipe () in
  let s =
    Blockack.Sender_multi.create p.engine adaptive_config
      ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 8)
  in
  Blockack.Sender_multi.pump s;
  Engine.schedule p.engine ~delay:10 (fun () ->
      Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:0 ~hi:3));
  Engine.run ~until:11 p.engine;
  let srtt_before = Blockack.Sender_multi.srtt s in
  let r0 = Blockack.Sender_multi.rto_now s in
  (* Let 4..7 retransmit, then acknowledge 4 long after: the wildly late
     "sample" (ambiguous — first copy or retransmission?) must not touch
     the smoothed estimate. *)
  Engine.run ~until:(10 + r0 + 2) p.engine;
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:4 ~hi:4);
  check
    (Alcotest.option (Alcotest.float 1e-9))
    "retransmitted message left srtt untouched" srtt_before (Blockack.Sender_multi.srtt s)

(* ------------------------------------------------------------------ *)
(* Rtt_estimator backoff regression *)

module Rtt = Blockack.Rtt_estimator

let test_rtt_backoff_never_overflows () =
  (* With the default ceiling = max_int, repeated doubling used to wrap
     negative and get clamped back to the floor — collapsing the timeout
     to its minimum in the middle of an outage. The saturating backoff
     must instead march monotonically up to the ceiling and stay there. *)
  let e = Rtt.create ~initial_rto:1000 () in
  let prev = ref (Rtt.rto e) in
  for _ = 1 to 80 do
    Rtt.backoff e;
    let now = Rtt.rto e in
    if now < !prev then Alcotest.failf "rto regressed from %d to %d during backoff" !prev now;
    prev := now
  done;
  check Alcotest.int "saturated at the ceiling" max_int (Rtt.rto e)

let test_rtt_backoff_caps_at_ceiling () =
  let e = Rtt.create ~ceiling:5000 ~initial_rto:800 () in
  for _ = 1 to 10 do
    Rtt.backoff e
  done;
  check Alcotest.int "capped" 5000 (Rtt.rto e)

let test_rtt_sample_unpins_backoff () =
  (* Once the path recovers, a genuine (Karn-clean) sample must rebuild
     the rto from srtt/rttvar rather than leaving it pinned at the cap. *)
  let e = Rtt.create ~ceiling:100_000 ~initial_rto:500 () in
  Rtt.observe e 40;
  for _ = 1 to 12 do
    Rtt.backoff e
  done;
  check Alcotest.int "pinned at cap mid-outage" 100_000 (Rtt.rto e);
  Rtt.observe e 40;
  check Alcotest.bool "post-recovery sample rebuilt the estimate" true (Rtt.rto e < 1000)

let test_rtt_reset_restores_initial () =
  let e = Rtt.create ~floor:10 ~ceiling:5000 ~initial_rto:300 () in
  Rtt.observe e 40;
  Rtt.observe e 60;
  Rtt.backoff e;
  Rtt.reset e;
  check Alcotest.int "initial rto restored" 300 (Rtt.rto e);
  check Alcotest.int "samples cleared" 0 (Rtt.samples e);
  check (Alcotest.float 1e-9) "srtt cleared" 0. (Rtt.srtt e)

(* ------------------------------------------------------------------ *)
(* Window_guard *)

let test_guard_unrestricted_initially () =
  let e = Engine.create () in
  let g = Blockack.Window_guard.create e ~retry:ignore in
  check Alcotest.int "no cap" max_int (Blockack.Window_guard.frontier g)

let test_guard_caps_and_expires () =
  let e = Engine.create () in
  let g = Blockack.Window_guard.create e ~retry:ignore in
  Blockack.Window_guard.note_retransmission g ~seq:10 ~window:4 ~hold_for:50;
  check Alcotest.int "cap at seq+w" 14 (Blockack.Window_guard.frontier g);
  Blockack.Window_guard.note_retransmission g ~seq:5 ~window:4 ~hold_for:50;
  check Alcotest.int "lowest cap wins" 9 (Blockack.Window_guard.frontier g);
  Engine.schedule e ~delay:60 (fun () -> ());
  Engine.run e;
  check Alcotest.int "expired" max_int (Blockack.Window_guard.frontier g)

let test_guard_retry_fires_at_expiry () =
  let e = Engine.create () in
  let fired_at = ref (-1) and fired = ref 0 in
  let g =
    Blockack.Window_guard.create e ~retry:(fun () ->
        fired_at := Engine.now e;
        incr fired)
  in
  Blockack.Window_guard.note_retransmission g ~seq:0 ~window:4 ~hold_for:30;
  Blockack.Window_guard.when_blocked g;
  (* A second block while armed must not double-fire. *)
  Blockack.Window_guard.when_blocked g;
  Engine.run e;
  check Alcotest.int "retry at expiry" 30 !fired_at;
  check Alcotest.int "no duplicate retry" 1 !fired

let test_sender_respects_frontier () =
  let p = make_pipe () in
  let s =
    Blockack.Sender.create p.engine config_w4 ~tx:(fun d -> Queue.add d p.sent_data)
      ~next_payload:(payloads 20)
  in
  Blockack.Sender.pump s;
  (* Force a timeout-driven retransmission of 0, then ack 0..3: without
     the guard the window would jump to 8; the frontier caps it at 0+4. *)
  Engine.run ~until:100 p.engine;
  Queue.clear p.sent_data;
  Blockack.Sender.on_ack s (Wire.make_ack ~lo:(0) ~hi:(3));
  check Alcotest.int "pump capped at frontier" 4 (Blockack.Sender.ns s);
  (* After the hold expires the window reopens to na + w. *)
  Engine.run ~until:250 p.engine;
  check Alcotest.int "window reopened later" 8 (Blockack.Sender.ns s)

let () =
  Alcotest.run "blockack_core"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_config_defaults;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "workload",
        [
          Alcotest.test_case "roundtrip" `Quick test_workload_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "supplier" `Quick test_workload_supplier;
          Alcotest.test_case "index_of garbage" `Quick test_workload_index_of_garbage;
          qcheck prop_workload_roundtrip;
          Alcotest.test_case "pinned bytes" `Quick test_workload_pinned;
          qcheck prop_workload_matches_reference;
          Alcotest.test_case "allocation" `Quick test_workload_allocation;
          Alcotest.test_case "matches rejects every flip" `Quick
            test_workload_matches_rejects_flips;
        ] );
      ( "seqcodec",
        [
          Alcotest.test_case "identity when unbounded" `Quick test_codec_identity_when_unbounded;
          Alcotest.test_case "modular roundtrip" `Quick test_codec_modular_roundtrip;
          Alcotest.test_case "rejects small modulus" `Quick test_codec_rejects_small_modulus;
          Alcotest.test_case "span wraparound" `Quick test_codec_span_wraparound;
          qcheck prop_codec_stale_acks_land_outside_window;
        ] );
      ( "sender",
        [
          Alcotest.test_case "pump fills window" `Quick test_sender_pump_fills_window;
          Alcotest.test_case "block ack advances" `Quick test_sender_block_ack_advances;
          Alcotest.test_case "out-of-order ack blocks" `Quick test_sender_out_of_order_ack_blocks;
          Alcotest.test_case "duplicate ack ignored" `Quick test_sender_duplicate_ack_ignored;
          Alcotest.test_case "timeout resends na" `Quick test_sender_timeout_resends_na;
          Alcotest.test_case "timer stops when idle" `Quick test_sender_timer_stops_when_idle;
          Alcotest.test_case "wire encoding" `Quick test_sender_wire_encoding;
        ] );
      ( "receiver",
        [
          Alcotest.test_case "in order" `Quick test_receiver_in_order;
          Alcotest.test_case "buffers out of order" `Quick test_receiver_buffers_out_of_order;
          Alcotest.test_case "dup of accepted re-acked" `Quick
            test_receiver_dup_of_accepted_is_reacked;
          Alcotest.test_case "dup of buffered silent" `Quick test_receiver_dup_of_buffered_is_silent;
          Alcotest.test_case "modular wraparound" `Quick test_receiver_modular_wraparound;
          Alcotest.test_case "coalesce" `Quick test_receiver_coalesce;
          Alcotest.test_case "drop-new refuses newcomer" `Quick
            test_receiver_drop_new_refuses_newcomer;
          Alcotest.test_case "drop-furthest evicts" `Quick test_receiver_drop_furthest_evicts;
          Alcotest.test_case "drop-furthest keeps nearer frame" `Quick
            test_receiver_drop_furthest_keeps_nearer_frame;
          Alcotest.test_case "run extender exempt from budget" `Quick
            test_receiver_run_extender_exempt_from_budget;
          Alcotest.test_case "flush forces pending" `Quick test_receiver_flush_forces_pending;
        ] );
      ( "sender_multi",
        [
          Alcotest.test_case "individual timers" `Quick test_multi_individual_timers;
          Alcotest.test_case "lost block ack recovers in burst" `Quick
            test_multi_lost_block_ack_recovery_is_burst;
          Alcotest.test_case "ack stops timer" `Quick test_multi_ack_stops_timer;
          Alcotest.test_case "done condition" `Quick test_multi_done_only_when_exhausted_and_acked;
          Alcotest.test_case "one timer event per sender" `Quick test_multi_one_timer_event;
          Alcotest.test_case "a pull allocates nothing" `Quick test_pull_allocates_nothing;
        ] );
      ( "handshake",
        [
          Alcotest.test_case "receiver retries POS every rto" `Quick
            test_handshake_receiver_retries_pos;
          Alcotest.test_case "sender retries REQ every rto" `Quick
            test_handshake_sender_retries_req;
          Alcotest.test_case "crash before any handshake" `Quick test_handshake_crash_before_any;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "idle endpoints" `Quick test_endpoint_footprint;
          Alcotest.test_case "two in flight" `Quick test_flight_footprint;
          Alcotest.test_case "state independent of transfer length" `Quick
            test_state_independent_of_length;
        ] );
      ( "growth",
        [ qcheck prop_receiver_grows_with_arrivals; qcheck prop_lead_sender_grows_with_flight ] );
      ( "wire",
        [
          Alcotest.test_case "checksum roundtrip" `Quick test_wire_checksum_roundtrip;
          qcheck prop_checksum_matches_bytewise;
          Alcotest.test_case "checksum literals" `Quick test_wire_checksum_literals;
          Alcotest.test_case "checksum allocates nothing" `Quick test_wire_checksum_allocation;
          Alcotest.test_case "corruption detected" `Quick test_wire_corruption_detected;
          Alcotest.test_case "receiver drops corrupt data" `Quick test_receiver_drops_corrupt_data;
          Alcotest.test_case "sender drops corrupt ack" `Quick test_sender_drops_corrupt_ack;
          Alcotest.test_case "sender survives hostile ack range" `Quick
            test_sender_hostile_ack_range;
          Alcotest.test_case "sender survives hostile POS" `Quick test_sender_hostile_pos;
        ] );
      ( "karn",
        [
          Alcotest.test_case "backoff, not collapse" `Quick test_multi_karn_backoff_not_collapse;
          Alcotest.test_case "retransmit samples excluded" `Quick
            test_multi_karn_excludes_retransmit_samples;
        ] );
      ( "rtt_estimator",
        [
          Alcotest.test_case "backoff never overflows" `Quick test_rtt_backoff_never_overflows;
          Alcotest.test_case "backoff caps at ceiling" `Quick test_rtt_backoff_caps_at_ceiling;
          Alcotest.test_case "sample unpins the cap" `Quick test_rtt_sample_unpins_backoff;
          Alcotest.test_case "reset restores initial state" `Quick test_rtt_reset_restores_initial;
        ] );
      ( "window_guard",
        [
          Alcotest.test_case "unrestricted initially" `Quick test_guard_unrestricted_initially;
          Alcotest.test_case "caps and expires" `Quick test_guard_caps_and_expires;
          Alcotest.test_case "retry at expiry" `Quick test_guard_retry_fires_at_expiry;
          Alcotest.test_case "sender respects frontier" `Quick test_sender_respects_frontier;
        ] );
    ]
