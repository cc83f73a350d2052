(* Unit tests for the baseline protocols: go-back-N (sender and receiver,
   bounded and unbounded), selective repeat's receiver, Stenning's slot
   quarantine, and the alternating-bit protocol. The e2e suite covers
   their end-to-end behaviour; these pin the wire-level mechanics. *)

let check = Alcotest.check

module Engine = Ba_sim.Engine
module Wire = Ba_proto.Wire
module Config = Ba_proto.Proto_config

let ack_t = Alcotest.testable Wire.pp_ack ( = )

let payloads n = Ba_proto.Workload.supplier ~seed:0 ~size:8 ~count:n
let payload i = Ba_proto.Workload.payload ~seed:0 ~size:8 i
let drain q = List.of_seq (Seq.unfold (fun () -> Option.map (fun x -> (x, ())) (Queue.take_opt q)) ())

(* Instantiate a protocol's endpoints against capture queues. *)
let wire_seqs q = List.map (fun d -> d.Wire.seq) (drain q)

(* ------------------------------------------------------------------ *)
(* Go-back-N *)

let gbn = Ba_baselines.Go_back_n.protocol

let test_gbn_sender_window_and_cumulative_ack () =
  let engine = Engine.create () in
  let sent = Queue.create () in
  let (module P) = gbn in
  let config = Config.make ~window:4 ~rto:100 () in
  let s =
    P.create_sender engine config ~tx:(fun d -> Queue.add d sent) ~next_payload:(payloads 20)
  in
  P.sender_pump s;
  check (Alcotest.list Alcotest.int) "window burst" [ 0; 1; 2; 3 ] (wire_seqs sent);
  (* Cumulative ack 2 releases 0..2 and refills. *)
  P.sender_on_ack s (Wire.make_ack ~lo:(2) ~hi:(2));
  check Alcotest.int "outstanding after ack" 4 (P.sender_outstanding s);
  check (Alcotest.list Alcotest.int) "refill" [ 4; 5; 6 ] (wire_seqs sent);
  (* A stale (lower) cumulative ack is ignored. *)
  P.sender_on_ack s (Wire.make_ack ~lo:(1) ~hi:(1));
  check Alcotest.int "stale cumulative ignored" 4 (P.sender_outstanding s)

let test_gbn_sender_goes_back_n () =
  let engine = Engine.create () in
  let sent = Queue.create () in
  let (module P) = gbn in
  let config = Config.make ~window:4 ~rto:100 () in
  let s =
    P.create_sender engine config ~tx:(fun d -> Queue.add d sent) ~next_payload:(payloads 4)
  in
  P.sender_pump s;
  P.sender_on_ack s (Wire.make_ack ~lo:(0) ~hi:(0));
  Queue.clear sent;
  Engine.run ~until:150 engine;
  (* The whole outstanding window 1..3 is retransmitted, oldest first. *)
  check (Alcotest.list Alcotest.int) "go back N" [ 1; 2; 3 ] (wire_seqs sent);
  check Alcotest.int "all counted" 3 (P.sender_retransmissions s)

let test_gbn_receiver_in_order_only () =
  let engine = Engine.create () in
  let acks = Queue.create () and delivered = Queue.create () in
  let (module P) = gbn in
  let config = Config.make ~window:4 ~rto:100 () in
  let r =
    P.create_receiver engine config
      ~tx:(fun a -> Queue.add a acks)
      ~deliver:(fun p -> Queue.add p delivered)
  in
  P.receiver_on_data r (Wire.make_data ~seq:(0) ~payload:(payload 0));
  check (Alcotest.list ack_t) "ack 0" [ (Wire.make_ack ~lo:(0) ~hi:(0)) ] (drain acks);
  (* Out of order: discarded, last in-order re-acked. *)
  P.receiver_on_data r (Wire.make_data ~seq:(2) ~payload:(payload 2));
  check (Alcotest.list ack_t) "dup ack 0" [ (Wire.make_ack ~lo:(0) ~hi:(0)) ] (drain acks);
  check Alcotest.int "nothing buffered or delivered" 1 (Queue.length delivered);
  (* The gap arrives; 2 is still gone (no buffer) and must be resent. *)
  P.receiver_on_data r (Wire.make_data ~seq:(1) ~payload:(payload 1));
  check Alcotest.int "1 delivered" 2 (Queue.length delivered);
  P.receiver_on_data r (Wire.make_data ~seq:(2) ~payload:(payload 2));
  check Alcotest.int "2 delivered on retransmit" 3 (Queue.length delivered)

let test_gbn_receiver_silent_before_first () =
  let engine = Engine.create () in
  let acks = Queue.create () in
  let (module P) = gbn in
  let config = Config.make ~window:4 ~rto:100 () in
  let r = P.create_receiver engine config ~tx:(fun a -> Queue.add a acks) ~deliver:(fun _ -> ()) in
  (* Nothing accepted yet: an out-of-order arrival cannot be dup-acked. *)
  P.receiver_on_data r (Wire.make_data ~seq:(3) ~payload:(payload 3));
  check Alcotest.int "no ack" 0 (Queue.length acks)

let test_gbn_bounded_wire_wraps () =
  let engine = Engine.create () in
  let sent = Queue.create () and acks = Queue.create () and delivered = Queue.create () in
  let (module P) = gbn in
  let config = Config.make ~window:3 ~rto:100 ~wire_modulus:(Some 4) () in
  let s =
    P.create_sender engine config ~tx:(fun d -> Queue.add d sent) ~next_payload:(payloads 8)
  in
  let r =
    P.create_receiver engine config
      ~tx:(fun a -> Queue.add a acks)
      ~deliver:(fun p -> Queue.add p delivered)
  in
  P.sender_pump s;
  (* Feed everything through in order: wire numbers wrap mod 4 but the
     transfer is FIFO so it works. *)
  for _ = 1 to 8 do
    (match drain sent with
    | [] -> ()
    | ds ->
        List.iter (fun d -> P.receiver_on_data r d) ds;
        List.iter (fun a -> P.sender_on_ack s a) (drain acks))
  done;
  check Alcotest.int "all delivered through wrapped numbers" 8 (Queue.length delivered);
  check Alcotest.bool "sender done" true (P.sender_done s)

(* ------------------------------------------------------------------ *)
(* Selective repeat receiver *)

let test_sr_receiver_acks_everything () =
  let engine = Engine.create () in
  let acks = Queue.create () and delivered = Queue.create () in
  let config = Config.make ~window:4 ~rto:100 ~wire_modulus:(Some 8) () in
  let r =
    Ba_baselines.Selective_repeat.create_receiver engine config
      ~tx:(fun a -> Queue.add a acks)
      ~deliver:(fun p -> Queue.add p delivered)
  in
  (* Out-of-order arrival is acked immediately and buffered. *)
  Ba_baselines.Selective_repeat.receiver_on_data r (Wire.make_data ~seq:(2) ~payload:(payload 2));
  check (Alcotest.list ack_t) "individual ack for ooo" [ (Wire.make_ack ~lo:(2) ~hi:(2)) ] (drain acks);
  check Alcotest.int "not delivered yet" 0 (Queue.length delivered);
  (* Filling the gap delivers in order; each arrival got its own ack. *)
  Ba_baselines.Selective_repeat.receiver_on_data r (Wire.make_data ~seq:(0) ~payload:(payload 0));
  Ba_baselines.Selective_repeat.receiver_on_data r (Wire.make_data ~seq:(1) ~payload:(payload 1));
  check
    (Alcotest.list ack_t)
    "acks 0 then 1"
    [ (Wire.make_ack ~lo:(0) ~hi:(0)); (Wire.make_ack ~lo:(1) ~hi:(1)) ]
    (drain acks);
  check
    (Alcotest.list Alcotest.string)
    "in order" [ payload 0; payload 1; payload 2 ] (drain delivered);
  (* A duplicate of an accepted message is re-acked, not redelivered. *)
  Ba_baselines.Selective_repeat.receiver_on_data r (Wire.make_data ~seq:(1) ~payload:(payload 1));
  check (Alcotest.list ack_t) "dup re-acked" [ (Wire.make_ack ~lo:(1) ~hi:(1)) ] (drain acks);
  check Alcotest.int "no redelivery" 0 (Queue.length delivered)

(* ------------------------------------------------------------------ *)
(* Stenning slot quarantine *)

let test_stenning_quarantine_delays_slot_reuse () =
  let engine = Engine.create () in
  let sent = Queue.create () in
  let (module P) = Ba_baselines.Stenning.protocol in
  let config = Config.make ~window:2 ~rto:500 ~wire_modulus:(Some 4) ~stenning_gap:100 () in
  let s =
    P.create_sender engine config ~tx:(fun d -> Queue.add d sent) ~next_payload:(payloads 10)
  in
  P.sender_pump s;
  check (Alcotest.list Alcotest.int) "fresh slots immediate" [ 0; 1 ] (wire_seqs sent);
  (* Acks free the window; wires 2,3 are fresh slots, also immediate. *)
  P.sender_on_ack s (Wire.make_ack ~lo:(0) ~hi:(0));
  P.sender_on_ack s (Wire.make_ack ~lo:(1) ~hi:(1));
  check (Alcotest.list Alcotest.int) "next fresh slots" [ 2; 3 ] (wire_seqs sent);
  (* Wire 0 (seq 4) was used at t=0: quarantined until t=100. *)
  P.sender_on_ack s (Wire.make_ack ~lo:(2) ~hi:(2));
  P.sender_on_ack s (Wire.make_ack ~lo:(3) ~hi:(3));
  check (Alcotest.list Alcotest.int) "slot 0 quarantined" [] (wire_seqs sent);
  Engine.run ~until:100 engine;
  let after = wire_seqs sent in
  check Alcotest.bool "released at gap expiry" true (List.mem 0 after);
  check Alcotest.int "now at t=100" 100 (Engine.now engine)

(* ------------------------------------------------------------------ *)
(* Alternating bit *)

let abp = Ba_baselines.Alternating_bit.protocol

let test_abp_alternates_and_waits () =
  let engine = Engine.create () in
  let sent = Queue.create () in
  let (module P) = abp in
  let config = Config.make ~window:1 ~rto:100 () in
  let s =
    P.create_sender engine config ~tx:(fun d -> Queue.add d sent) ~next_payload:(payloads 3)
  in
  P.sender_pump s;
  check (Alcotest.list Alcotest.int) "first bit 0" [ 0 ] (wire_seqs sent);
  (* Wrong-bit ack is ignored; right-bit ack advances and flips. *)
  P.sender_on_ack s (Wire.make_ack ~lo:(1) ~hi:(1));
  check Alcotest.int "wrong bit ignored" 0 (Queue.length sent);
  P.sender_on_ack s (Wire.make_ack ~lo:(0) ~hi:(0));
  check (Alcotest.list Alcotest.int) "second bit 1" [ 1 ] (wire_seqs sent);
  P.sender_on_ack s (Wire.make_ack ~lo:(1) ~hi:(1));
  check (Alcotest.list Alcotest.int) "third bit 0 again" [ 0 ] (wire_seqs sent)

let test_abp_receiver_dedups () =
  let engine = Engine.create () in
  let acks = Queue.create () and delivered = Queue.create () in
  let (module P) = abp in
  let config = Config.make ~window:1 ~rto:100 () in
  let r =
    P.create_receiver engine config
      ~tx:(fun a -> Queue.add a acks)
      ~deliver:(fun p -> Queue.add p delivered)
  in
  P.receiver_on_data r (Wire.make_data ~seq:(0) ~payload:("a"));
  P.receiver_on_data r (Wire.make_data ~seq:(0) ~payload:("a"));
  (* duplicate *)
  check Alcotest.int "delivered once" 1 (Queue.length delivered);
  check
    (Alcotest.list ack_t)
    "both arrivals acked"
    [ (Wire.make_ack ~lo:(0) ~hi:(0)); (Wire.make_ack ~lo:(0) ~hi:(0)) ]
    (drain acks);
  P.receiver_on_data r (Wire.make_data ~seq:(1) ~payload:("b"));
  check Alcotest.int "next bit delivered" 2 (Queue.length delivered)

let test_abp_timeout_retransmits () =
  let engine = Engine.create () in
  let sent = Queue.create () in
  let (module P) = abp in
  let config = Config.make ~window:1 ~rto:100 () in
  let s =
    P.create_sender engine config ~tx:(fun d -> Queue.add d sent) ~next_payload:(payloads 1)
  in
  P.sender_pump s;
  Queue.clear sent;
  Engine.run ~until:250 engine;
  check (Alcotest.list Alcotest.int) "two retransmissions of bit 0" [ 0; 0 ] (wire_seqs sent);
  check Alcotest.int "counted" 2 (P.sender_retransmissions s)

(* Selective repeat resends exactly once per loss: every data frame or
   acknowledgment the channel drops costs one retransmission, and
   nothing else does. Its rto (250) exceeds the longest round trip
   (2 * 60), so no timer expires while a copy or its acknowledgment is
   still in flight. A failure is a premature or missing timer. *)
let prop_sr_resends_once_per_loss =
  let entry = Option.get (Ba_registry.Registry.find "selective-repeat") in
  let config = Ba_registry.Registry.config entry () in
  QCheck.Test.make ~name:"selective repeat resends once per loss" ~count:200
    QCheck.(triple (Arb.int_range 1 10_000) (int_bound 20) (int_bound 20))
    (fun (seed, data_pct, ack_pct) ->
      let r =
        Ba_proto.Harness.run entry.Ba_registry.Registry.protocol ~seed ~messages:300 ~config
          ~data_loss:(float_of_int data_pct /. 100.) ~ack_loss:(float_of_int ack_pct /. 100.) ()
      in
      (Ba_proto.Harness.correct r
      && r.Ba_proto.Harness.retransmissions = r.data_dropped + r.acks_dropped)
      || QCheck.Test.fail_reportf
           "@[<v>seed %d, %d%% data loss, %d%% ack loss: %d retransmissions for %d data and \
            %d ack drops@,%a@,fixed: registry config (window 16, rto 250), 300 messages, \
            delay Uniform (40, 60) both ways@]"
           seed data_pct ack_pct r.retransmissions r.data_dropped r.acks_dropped
           Ba_proto.Harness.pp_result r)

let () =
  Alcotest.run "baselines"
    [
      ( "go_back_n",
        [
          Alcotest.test_case "window and cumulative acks" `Quick
            test_gbn_sender_window_and_cumulative_ack;
          Alcotest.test_case "goes back N on timeout" `Quick test_gbn_sender_goes_back_n;
          Alcotest.test_case "receiver in-order only" `Quick test_gbn_receiver_in_order_only;
          Alcotest.test_case "receiver silent before first" `Quick
            test_gbn_receiver_silent_before_first;
          Alcotest.test_case "bounded wire wraps (FIFO)" `Quick test_gbn_bounded_wire_wraps;
        ] );
      ( "selective_repeat",
        [
          Alcotest.test_case "acks everything individually" `Quick test_sr_receiver_acks_everything;
          QCheck_alcotest.to_alcotest prop_sr_resends_once_per_loss;
        ] );
      ( "stenning",
        [ Alcotest.test_case "slot quarantine" `Quick test_stenning_quarantine_delays_slot_reuse ]
      );
      ( "alternating_bit",
        [
          Alcotest.test_case "alternates and waits" `Quick test_abp_alternates_and_waits;
          Alcotest.test_case "receiver dedups" `Quick test_abp_receiver_dedups;
          Alcotest.test_case "timeout retransmits" `Quick test_abp_timeout_retransmits;
        ] );
    ]
