(* End-to-end protocol tests through the harness: correctness of every
   protocol under loss and reorder, the paper's comparative claims
   (recovery speed, ack economy, Stenning's rate cap, bounded go-back-N's
   unsafety), and a randomized qcheck property over seeds and loss. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Harness = Ba_proto.Harness
module Config = Blockack.Config
module Dist = Ba_channel.Dist
module Wire = Ba_proto.Wire

let fifo_delay = Dist.Constant 50
let jitter_delay = Dist.Uniform (20, 80)

let blockack_config = Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ()

let run ?(seed = 1) ?(messages = 500) ?payload_size ?(config = blockack_config) ?(loss = 0.)
    ?(delay = jitter_delay) ?on_setup proto =
  Harness.run proto ~seed ~messages ?payload_size ~config ~data_loss:loss ~ack_loss:loss
    ~data_delay:delay ~ack_delay:delay ?on_setup ()

let assert_correct name r =
  if not (Harness.correct r) then
    Alcotest.failf "%s: incorrect run: completed=%b dup=%d ooo=%d bad=%d delivered=%d/%d" name
      r.Harness.completed r.Harness.duplicates r.Harness.misordered r.Harness.corrupted
      r.Harness.delivered r.Harness.messages

(* ------------------------------------------------------------------ *)
(* Correctness of the block-acknowledgment protocol *)

let test_blockack_lossless () =
  let r = run Blockack.Protocols.simple in
  assert_correct "simple lossless" r;
  check Alcotest.int "no retransmissions" 0 r.Harness.retransmissions

let test_blockack_simple_under_loss () =
  List.iter
    (fun loss ->
      List.iter
        (fun seed -> assert_correct "simple lossy" (run ~seed ~loss Blockack.Protocols.simple))
        [ 1; 2; 3 ])
    [ 0.05; 0.2 ]

let test_blockack_multi_under_loss () =
  List.iter
    (fun loss ->
      List.iter
        (fun seed -> assert_correct "multi lossy" (run ~seed ~loss Blockack.Protocols.multi))
        [ 1; 2; 3 ])
    [ 0.05; 0.2 ]

let test_blockack_heavy_loss () =
  assert_correct "multi 40% loss" (run ~loss:0.4 ~messages:200 Blockack.Protocols.multi)

let test_blockack_asymmetric_loss () =
  (* Only acks are lost: data always arrives, every recovery exercises the
     duplicate-ack path. *)
  let r =
    Harness.run Blockack.Protocols.multi ~seed:3 ~messages:300 ~config:blockack_config
      ~data_loss:0. ~ack_loss:0.3 ~data_delay:jitter_delay ~ack_delay:jitter_delay ()
  in
  assert_correct "ack-only loss" r;
  check Alcotest.bool "dup-ack recoveries happened" true (r.Harness.retransmissions > 0)

let test_blockack_unbounded_wire () =
  let config = Config.make ~window:16 ~rto:300 () in
  assert_correct "unbounded wire" (run ~config ~loss:0.1 Blockack.Protocols.simple)

let test_blockack_window_one () =
  let config = Config.make ~window:1 ~rto:300 ~wire_modulus:(Some 2) () in
  assert_correct "w=1 degenerates to alternating bit" (run ~config ~loss:0.1 ~messages:100 Blockack.Protocols.simple)

let test_blockack_large_window () =
  let config = Config.make ~window:128 ~rto:300 ~wire_modulus:(Some 256) () in
  assert_correct "w=128" (run ~config ~loss:0.05 ~messages:1000 Blockack.Protocols.multi)

let test_blockack_coalescing_reduces_acks () =
  let coalesced = Config.make ~window:16 ~rto:400 ~wire_modulus:(Some 32) ~ack_coalesce:30 () in
  let r_plain = run ~messages:1000 Blockack.Protocols.simple in
  let r_coalesced = run ~messages:1000 ~config:coalesced Blockack.Protocols.simple in
  assert_correct "coalesced" r_coalesced;
  check Alcotest.bool "fewer acks with coalescing" true
    (r_coalesced.Harness.acks_sent < r_plain.Harness.acks_sent)

(* ------------------------------------------------------------------ *)
(* Baselines: correctness where expected, failure where the paper says *)

let test_gbn_unbounded_correct () =
  let config = Config.make ~window:16 ~rto:300 () in
  List.iter
    (fun loss ->
      assert_correct "gbn unbounded"
        (run ~config ~loss ~delay:fifo_delay Ba_baselines.Go_back_n.protocol))
    [ 0.; 0.1 ]

let test_gbn_bounded_fails_under_reorder () =
  (* The paper's introduction, end to end: bounded sequence numbers plus
     reorder break go-back-N. Across a few seeds we must observe at least
     one incorrect run (misorder, duplicate, or a wedged transfer). *)
  let config = Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 17) () in
  let broken = ref 0 in
  List.iter
    (fun seed ->
      let r =
        Harness.run Ba_baselines.Go_back_n.protocol ~seed ~messages:300 ~config ~data_loss:0.05
          ~ack_loss:0.05 ~data_delay:jitter_delay ~ack_delay:jitter_delay
          ~deadline:3_000_000 ()
      in
      if not (Harness.correct r) then incr broken)
    [ 1; 2; 3; 4; 5 ];
  check Alcotest.bool "bounded gbn misbehaves under reorder" true (!broken > 0)

let test_selective_repeat_correct () =
  List.iter
    (fun loss ->
      List.iter
        (fun seed ->
          assert_correct "selective repeat"
            (run ~seed ~loss Ba_baselines.Selective_repeat.protocol))
        [ 1; 2 ])
    [ 0.; 0.1 ]

let test_selective_repeat_acks_every_message () =
  let r = run ~messages:400 Ba_baselines.Selective_repeat.protocol in
  assert_correct "sr" r;
  check Alcotest.bool "at least one ack per message" true (r.Harness.acks_sent >= 400)

let test_blockack_fewer_acks_than_selective_repeat () =
  (* The paper's Section VI: one block ack can cover many messages, where
     selective repeat must send one per message. *)
  let r_ba = run ~messages:1000 Blockack.Protocols.simple in
  let r_sr = run ~messages:1000 Ba_baselines.Selective_repeat.protocol in
  assert_correct "ba" r_ba;
  assert_correct "sr" r_sr;
  check Alcotest.bool "block acks are fewer" true
    (r_ba.Harness.acks_sent < r_sr.Harness.acks_sent)

(* One config for every protocol on F1's channel, so the comparison is
   apples-to-apples. It coalesces acknowledgments for 30 ticks, block
   ack's defining feature; the baselines do not read [ack_coalesce].
   [rto = 300 > 2 * max_transit + ack_coalesce = 130] keeps timeout
   soundness. *)
let f1_config =
  Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~ack_coalesce:30 ~max_transit:50 ()

let f1_run ?(loss = 0.) ?payload_size ~messages proto =
  run ~seed:3 ~messages ?payload_size ~config:f1_config ~loss ~delay:fifo_delay proto

(* The paper's claim that acknowledging runs in blocks costs fewer frames
   for the same recovery: on F1's lossy channel (200 messages, 5% loss
   each way) block ack spends 1.860 frames, data plus acknowledgment, per
   delivered message, and the cheaper baseline, selective repeat, 2.185.
   The runs are deterministic, so the comparison needs no margin. *)
let test_blockack_fewest_frames () =
  let frames_per_msg (name, proto) =
    let r = f1_run ~loss:0.05 ~messages:200 proto in
    assert_correct name r;
    let f =
      float_of_int (r.Harness.data_sent + r.Harness.acks_sent) /. float_of_int r.Harness.delivered
    in
    Printf.printf "%s: %.3f frames/msg\n" name f;
    f
  in
  let ba = frames_per_msg ("blockack-multi", Blockack.Protocols.multi) in
  List.iter
    (fun (name, proto) ->
      let f = frames_per_msg (name, proto) in
      if ba > f then Alcotest.failf "blockack spends %.3f frames/msg, %s %.3f" ba name f)
    [
      ("go-back-n", Ba_baselines.Go_back_n.protocol);
      ("selective-repeat", Ba_baselines.Selective_repeat.protocol);
    ]

let test_alternating_bit_correct () =
  let config = Config.make ~window:1 ~rto:300 () in
  List.iter
    (fun loss ->
      assert_correct "alternating bit"
        (run ~config ~loss ~messages:100 Ba_baselines.Alternating_bit.protocol))
    [ 0.; 0.2 ]

let test_alternating_bit_stop_and_wait () =
  let config = Config.make ~window:1 ~rto:300 () in
  let r = run ~config ~messages:100 ~delay:fifo_delay Ba_baselines.Alternating_bit.protocol in
  assert_correct "abp" r;
  (* One round trip (100 ticks) per message. *)
  check Alcotest.bool "takes ~one RTT per message" true (r.Harness.ticks >= 100 * 100)

let test_stenning_correct () =
  let config =
    Config.make ~window:8 ~rto:300 ~wire_modulus:(Some 16) ~stenning_gap:400 ()
  in
  List.iter
    (fun loss -> assert_correct "stenning" (run ~config ~loss ~messages:200 Ba_baselines.Stenning.protocol))
    [ 0.; 0.1 ]

let test_stenning_rate_cap () =
  (* Steady-state throughput cannot exceed n/gap messages per tick even
     with an enormous window — the paper's degradation claim. *)
  let config =
    Config.make ~window:8 ~rto:300 ~wire_modulus:(Some 16) ~stenning_gap:800 ()
  in
  let r = run ~config ~messages:400 ~delay:fifo_delay Ba_baselines.Stenning.protocol in
  assert_correct "stenning capped" r;
  (* 400 messages / (16/800 per tick) = 20_000 ticks minimum. *)
  check Alcotest.bool "rate cap binds" true (r.Harness.ticks >= 19_000);
  (* Block acknowledgment with the same window has no such cap. *)
  let ba_config = Config.make ~window:8 ~rto:300 ~wire_modulus:(Some 16) () in
  let r_ba = run ~config:ba_config ~messages:400 ~delay:fifo_delay Blockack.Protocols.simple in
  check Alcotest.bool "blockack much faster" true (r_ba.Harness.ticks * 2 < r.Harness.ticks)

(* ------------------------------------------------------------------ *)
(* Recovery-speed comparison (Section IV claim, the F3 experiment shape) *)

let recovery_after_killed_ack proto ~block =
  (* Let the transfer warm up, then kill the single block acknowledgment
     covering messages [block_start, block_start + block), and measure how
     long the sender needs to get na past the block again. *)
  let config = Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~ack_coalesce:25 () in
  let killed = ref 0 in
  let r =
    Harness.run proto ~seed:11 ~messages:200 ~config ~data_delay:fifo_delay
      ~ack_delay:fifo_delay
      ~on_setup:(fun cell ->
        Ba_channel.Link.set_fault (Ba_proto.Cell.ack_link cell) (fun (a : Wire.ack) ->
            let covered = Ba_util.Modseq.distance ~n:32 a.Wire.lo a.Wire.hi + 1 in
            if covered >= block && !killed = 0 then begin
              incr killed;
              Ba_channel.Link.Drop
            end
            else Ba_channel.Link.Deliver))
      ()
  in
  check Alcotest.bool "an ack was killed" true (!killed = 1);
  check Alcotest.bool "still completes" true r.Harness.completed;
  r.Harness.ticks

let test_multi_recovers_block_faster_than_simple () =
  let block = 8 in
  let t_simple = recovery_after_killed_ack Blockack.Protocols.simple ~block in
  let t_multi = recovery_after_killed_ack Blockack.Protocols.multi ~block in
  (* Simple pays ~one rto per covered message; multi pays ~one rto total.
     Demand at least a 2x gap to be robust. *)
  check Alcotest.bool
    (Printf.sprintf "multi (%d) at least 2x faster than simple (%d)" t_multi t_simple)
    true
    (t_multi * 2 < t_simple)

(* ------------------------------------------------------------------ *)
(* Scripted fault: every protocol survives a burst outage *)

let test_blockack_survives_burst_outage () =
  (* Drop every data message in a contiguous burst mid-transfer. *)
  let dropped = ref 0 in
  let r =
    Harness.run Blockack.Protocols.multi ~seed:2 ~messages:300 ~config:blockack_config
      ~data_delay:jitter_delay ~ack_delay:jitter_delay
      ~on_setup:(fun cell ->
        let count = ref 0 in
        Ba_channel.Link.set_fault (Ba_proto.Cell.data_link cell) (fun (_ : Wire.data) ->
            incr count;
            if !count >= 100 && !count < 140 then begin
              incr dropped;
              Ba_channel.Link.Drop
            end
            else Ba_channel.Link.Deliver))
      ()
  in
  assert_correct "burst outage" r;
  check Alcotest.int "burst really dropped" 40 !dropped

(* ------------------------------------------------------------------ *)
(* Randomized end-to-end property *)

let test_harness_deterministic () =
  (* Identical seed and parameters must give identical results, field for
     field — the reproducibility guarantee every experiment rests on. *)
  let go () =
    run ~seed:123 ~messages:300 ~loss:0.1 Blockack.Protocols.multi
  in
  let a = go () and b = go () in
  check Alcotest.bool "identical results" true (a = b);
  let c = run ~seed:124 ~messages:300 ~loss:0.1 Blockack.Protocols.multi in
  check Alcotest.bool "different seed differs" true (a.Harness.ticks <> c.Harness.ticks)

let test_link_conservation () =
  (* After a completed run every sent message is accounted for: delivered,
     randomly dropped, or queue-dropped (nothing in flight once done). *)
  let r =
    Harness.run Blockack.Protocols.multi ~seed:9 ~messages:400 ~config:blockack_config
      ~data_loss:0.15 ~ack_loss:0.15 ~data_delay:jitter_delay ~ack_delay:jitter_delay ()
  in
  assert_correct "conservation run" r;
  (* data_sent counts harness-level sends; after completion the engine
     drained, so sent = delivered-at-link + dropped. We can't read link
     deliveries directly here, but sent - dropped >= messages (every
     payload got through at least once) and retransmissions account for
     the surplus sends. *)
  check Alcotest.bool "sent >= messages + retx - dropped allows completion" true
    (r.Harness.data_sent - r.Harness.data_dropped >= r.Harness.messages);
  check Alcotest.int "sends = fresh + retransmissions" r.Harness.data_sent
    (r.Harness.messages + r.Harness.retransmissions)

let test_latency_reported () =
  let r = run ~messages:200 Blockack.Protocols.multi in
  match r.Harness.latency with
  | None -> Alcotest.fail "latency summary expected"
  | Some l ->
      check Alcotest.int "one sample per message" 200 l.Ba_util.Stats.count;
      check Alcotest.int "raw samples exposed" 200 (Array.length r.Harness.latencies);
      (* The summary and the raw samples come from one column. *)
      check (Alcotest.float 0.) "samples' minimum is the summary's" l.Ba_util.Stats.min
        (Array.fold_left Float.min infinity r.Harness.latencies);
      check (Alcotest.float 0.) "samples' maximum is the summary's" l.Ba_util.Stats.max
        (Array.fold_left Float.max neg_infinity r.Harness.latencies);
      (* One-way delay is 20-80: in-order delivery latency is at least the
         minimum link delay. *)
      check Alcotest.bool "plausible minimum" true (l.Ba_util.Stats.min >= 20.)

(* The steady-state allocation slope of a clean block-ack transfer on
   F1's config: the heap bytes each further message (one data frame)
   costs, the fixed setup cost cancelled by differencing 200 and 400
   messages. It is deterministic: 56 B at 32 B payloads, namely the
   payload string (48 B) and the message's latency slot (8 B). The pull
   hands the payload over unboxed, the result takes the latency column
   itself and the summary sorts in a reused scratch column, so the frame
   path and the bookkeeping add nothing. At 512 B payloads the string is
   528 B and the rest is the same 8 B. The budget fails a boxed pull
   (16 B more per message, 72 B). *)
let test_alloc_slope () =
  let budget = 64. and beside_payload = 16. in
  let slope payload_size =
    let xfer messages () =
      assert_correct "alloc" (f1_run ~payload_size ~messages Blockack.Protocols.multi)
    in
    (* A warm-up run fills the frame pool, forces lazy initialisers and
       resizes arenas. [Gc.allocated_bytes] reads counters sampled at the
       last minor collection, so the minor heap is flushed before each
       reading. *)
    let per_run messages =
      let f = xfer messages in
      f ();
      let runs = 4 in
      Gc.minor ();
      let a0 = Gc.allocated_bytes () in
      for _ = 1 to runs do
        f ()
      done;
      Gc.minor ();
      (Gc.allocated_bytes () -. a0) /. float_of_int runs
    in
    (per_run 400 -. per_run 200) /. 200.
  in
  (* A string of [n] bytes: a header word and [n / 8 + 1] words. *)
  let string_bytes n = float_of_int (8 * (1 + (n / 8) + 1)) in
  List.iter
    (fun payload_size ->
      let s = slope payload_size in
      let rest = s -. string_bytes payload_size in
      Printf.printf "alloc slope at %d B payloads: %.0f B/frame, %.0f B beside the payload\n"
        payload_size s rest;
      if rest > beside_payload then
        Alcotest.failf "%d B payloads: %.0f B/frame beside the payload string, want <= %.0f"
          payload_size rest beside_payload;
      if payload_size = 32 && s > budget then
        Alcotest.failf "a clean transfer allocates %.0f B/frame, want <= %.0f" s budget)
    [ 32; 512 ]

let prop_blockack_always_correct =
  QCheck.Test.make ~name:"blockack delivers exactly once, in order, for any seed/loss/jitter"
    ~count:25
    QCheck.(
      quad (Arb.int_range 1 10_000) (int_bound 30) (int_range 0 40) bool)
    (fun (seed, loss_pct, jitter, multi) ->
      let loss = float_of_int loss_pct /. 100. in
      let delay = Dist.Uniform (30, 50 + jitter) in
      let proto = if multi then Blockack.Protocols.multi else Blockack.Protocols.simple in
      let r =
        Harness.run proto ~seed ~messages:150
          ~config:blockack_config ~data_loss:loss ~ack_loss:loss ~data_delay:delay
          ~ack_delay:delay ()
      in
      Harness.correct r
      || QCheck.Test.fail_reportf
           "@[<v>seed %d, %d%% loss each way, delay Uniform (30, %d): %a@,\
            fixed: window 16, rto 300, wire modulus 32; 150 messages@]"
           seed loss_pct (50 + jitter) Harness.pp_result r)

let prop_selective_repeat_always_correct =
  QCheck.Test.make ~name:"selective repeat delivers exactly once for any seed/loss" ~count:15
    QCheck.(pair (Arb.int_range 1 10_000) (int_bound 25))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100. in
      let r =
        Harness.run Ba_baselines.Selective_repeat.protocol ~seed ~messages:120
          ~config:blockack_config ~data_loss:loss ~ack_loss:loss ~data_delay:jitter_delay
          ~ack_delay:jitter_delay ()
      in
      Harness.correct r
      || QCheck.Test.fail_reportf
           "@[<v>seed %d, %d%% loss each way: %a@,\
            fixed: window 16, rto 300, wire modulus 32; 120 messages, delay Uniform (20, 80)@]"
           seed loss_pct Harness.pp_result r)

let () =
  Alcotest.run "e2e"
    [
      ( "blockack",
        [
          Alcotest.test_case "lossless" `Quick test_blockack_lossless;
          Alcotest.test_case "simple under loss" `Quick test_blockack_simple_under_loss;
          Alcotest.test_case "multi under loss" `Quick test_blockack_multi_under_loss;
          Alcotest.test_case "heavy loss" `Quick test_blockack_heavy_loss;
          Alcotest.test_case "asymmetric (ack-only) loss" `Quick test_blockack_asymmetric_loss;
          Alcotest.test_case "unbounded wire numbers" `Quick test_blockack_unbounded_wire;
          Alcotest.test_case "window one" `Quick test_blockack_window_one;
          Alcotest.test_case "large window" `Quick test_blockack_large_window;
          Alcotest.test_case "coalescing reduces acks" `Quick
            test_blockack_coalescing_reduces_acks;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "gbn unbounded correct" `Quick test_gbn_unbounded_correct;
          Alcotest.test_case "gbn bounded fails under reorder" `Quick
            test_gbn_bounded_fails_under_reorder;
          Alcotest.test_case "selective repeat correct" `Quick test_selective_repeat_correct;
          Alcotest.test_case "selective repeat acks every message" `Quick
            test_selective_repeat_acks_every_message;
          Alcotest.test_case "blockack sends fewer acks" `Quick
            test_blockack_fewer_acks_than_selective_repeat;
          Alcotest.test_case "blockack spends the fewest frames" `Quick
            test_blockack_fewest_frames;
          Alcotest.test_case "alternating bit correct" `Quick test_alternating_bit_correct;
          Alcotest.test_case "alternating bit is stop-and-wait" `Quick
            test_alternating_bit_stop_and_wait;
          Alcotest.test_case "stenning correct" `Quick test_stenning_correct;
          Alcotest.test_case "stenning rate cap" `Quick test_stenning_rate_cap;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "multi recovers lost block ack faster" `Quick
            test_multi_recovers_block_faster_than_simple;
          Alcotest.test_case "survives burst outage" `Quick test_blockack_survives_burst_outage;
        ] );
      ( "harness",
        [
          Alcotest.test_case "deterministic" `Quick test_harness_deterministic;
          Alcotest.test_case "conservation" `Quick test_link_conservation;
          Alcotest.test_case "latency reported" `Quick test_latency_reported;
          Alcotest.test_case "allocation slope" `Quick test_alloc_slope;
        ] );
      ( "properties",
        [ qcheck prop_blockack_always_correct; qcheck prop_selective_repeat_always_correct ] );
    ]
