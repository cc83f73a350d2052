(* Tests for the extension modules: the payload source, the RTT
   estimator, adaptive timeouts, the Section VI slot-reuse sender, the
   tracer, and shape checks over the experiment tables. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Engine = Ba_sim.Engine
module Wire = Ba_proto.Wire
module Config = Blockack.Config
module Harness = Ba_proto.Harness
module E = Ba_experiments.Experiments

(* ------------------------------------------------------------------ *)
(* Source *)

let list_supplier items () =
  match !items with
  | [] -> raise Ba_proto.Protocol.Exhausted
  | x :: rest ->
      items := rest;
      x

(* The payload [Source.next] took, or [None] when it took none. *)
let take s =
  if Ba_proto.Source.next s then Some (Ba_proto.Source.get s (Ba_proto.Source.issued s - 1))
  else None

let test_source_passthrough () =
  let s = Ba_proto.Source.create (list_supplier (ref [ "a"; "b" ])) in
  check (Alcotest.option Alcotest.string) "first" (Some "a") (take s);
  check (Alcotest.option Alcotest.string) "second" (Some "b") (take s);
  check (Alcotest.option Alcotest.string) "empty" None (take s)

(* Exhaustion is an exception, not a value: an empty payload is sent
   like any other, whether pulled directly or through the lookahead. *)
let test_source_empty_payload () =
  let s = Ba_proto.Source.create (list_supplier (ref [ ""; "" ])) in
  check (Alcotest.option Alcotest.string) "pulled" (Some "") (take s);
  check Alcotest.bool "held by the probe" false (Ba_proto.Source.exhausted s);
  check (Alcotest.option Alcotest.string) "from the lookahead" (Some "") (take s);
  check Alcotest.bool "then exhausted" true (Ba_proto.Source.exhausted s)

let test_source_exhausted_does_not_lose () =
  let s = Ba_proto.Source.create (list_supplier (ref [ "x" ])) in
  (* The exhaustion probe pulls "x" into the lookahead slot... *)
  check Alcotest.bool "not exhausted" false (Ba_proto.Source.exhausted s);
  (* ...and next must return it, not skip it. *)
  check (Alcotest.option Alcotest.string) "buffered item survives" (Some "x") (take s);
  check Alcotest.bool "now exhausted" true (Ba_proto.Source.exhausted s)

let test_source_replenished () =
  let items = ref [] in
  let s = Ba_proto.Source.create (list_supplier items) in
  check Alcotest.bool "exhausted while empty" true (Ba_proto.Source.exhausted s);
  items := [ "later" ];
  check Alcotest.bool "sees new data" false (Ba_proto.Source.exhausted s);
  check (Alcotest.option Alcotest.string) "delivers it" (Some "later") (take s)

(* A crashed sender replays its outbox from the position the receiver's
   POS names, and [ns] is its only send cursor. Twelve payloads grow the
   outbox from 1 to 16 slots, so a replay from 0 crosses every growth
   boundary; a second one starts mid-outbox, and fresh payloads follow
   it. *)
let test_sender_replay_across_growth () =
  let module S = Blockack.Sender_multi in
  let engine = Engine.create () in
  let next = ref 0 in
  let supplier () =
    if !next >= 14 then raise Ba_proto.Protocol.Exhausted
    else begin
      incr next;
      Printf.sprintf "p%d" (!next - 1)
    end
  in
  let sent = ref [] in
  let tx d = if d.Wire.dkind = Wire.Msg then sent := (d.Wire.seq, d.Wire.payload) :: !sent in
  let s = S.create engine (Config.make ~window:12 ~rto:100 ()) ~tx ~next_payload:supplier in
  let sends f =
    sent := [];
    f ();
    List.rev !sent
  in
  let ps a b = List.init (b - a) (fun i -> (a + i, Printf.sprintf "p%d" (a + i))) in
  let resync_at pos () =
    S.crash s;
    S.restart s;
    S.on_ack s (Wire.make_sync_pos ~epoch:(S.epoch s) ~pos)
  in
  let sent_list = Alcotest.(list (pair int string)) in
  check sent_list "first window" (ps 0 12) (sends (fun () -> S.pump s));
  check sent_list "replay across every growth" (ps 0 12) (sends (resync_at 0));
  check sent_list "mid replay, then fresh" (ps 9 14) (sends (resync_at 9));
  check Alcotest.(pair int int) "na, ns" (9, 14) (S.na s, S.ns s)

(* Releasing a prefix moves the base: the released positions can no
   longer be read, the rest keep their positions, and so do they across
   the growth that later issues force. *)
let test_source_release () =
  let next = ref 0 in
  let supplier () =
    if !next >= 20 then raise Ba_proto.Protocol.Exhausted
    else begin
      incr next;
      Printf.sprintf "p%d" (!next - 1)
    end
  in
  let module S = Ba_proto.Source in
  let s = S.create supplier in
  let take_n n = List.init n (fun _ -> take s) in
  let ps a b = List.init (b - a) (fun i -> Some (Printf.sprintf "p%d" (a + i))) in
  ignore (take_n 6);
  S.release s ~below:4;
  check Alcotest.int "base" 4 (S.base s);
  check Alcotest.int "issued" 6 (S.issued s);
  Alcotest.check_raises "get below base"
    (Invalid_argument "Source.get: position 3 outside held range [4,6)") (fun () ->
      ignore (S.get s 3));
  S.release s ~below:2;
  check Alcotest.int "releasing less is a no-op" 4 (S.base s);
  (* Fourteen more issues hold sixteen positions, [4, 20): the ring
     outgrows its eight slots and places them anew. *)
  check (Alcotest.list (Alcotest.option Alcotest.string)) "fresh after release" (ps 6 20)
    (take_n 14);
  check (Alcotest.list (Alcotest.option Alcotest.string)) "held after regrow" (ps 4 20)
    (List.init 16 (fun i -> Some (S.get s (4 + i))));
  check Alcotest.string "read in place" "p11" (S.get s 11);
  S.release s ~below:100;
  check Alcotest.int "release clamps to issued" 20 (S.base s);
  check Alcotest.bool "then exhausted" false (S.next s)

(* ------------------------------------------------------------------ *)
(* Rtt_estimator *)

let test_rtt_initial () =
  let e = Blockack.Rtt_estimator.create ~initial_rto:500 () in
  check Alcotest.int "initial rto" 500 (Blockack.Rtt_estimator.rto e);
  check Alcotest.int "no samples" 0 (Blockack.Rtt_estimator.samples e)

let test_rtt_first_sample () =
  let e = Blockack.Rtt_estimator.create ~initial_rto:500 () in
  Blockack.Rtt_estimator.observe e 100;
  (* RFC 6298 init: srtt = 100, rttvar = 50, rto = 100 + 200 = 300. *)
  check (Alcotest.float 1e-9) "srtt" 100. (Blockack.Rtt_estimator.srtt e);
  check (Alcotest.float 1e-9) "rttvar" 50. (Blockack.Rtt_estimator.rttvar e);
  check Alcotest.int "rto" 300 (Blockack.Rtt_estimator.rto e)

let test_rtt_converges () =
  let e = Blockack.Rtt_estimator.create ~initial_rto:10_000 () in
  for _ = 1 to 200 do
    Blockack.Rtt_estimator.observe e 100
  done;
  (* Constant samples: srtt -> 100, rttvar -> 0, rto -> ~100. *)
  check Alcotest.bool "srtt near 100" true (abs_float (Blockack.Rtt_estimator.srtt e -. 100.) < 1.);
  check Alcotest.bool "rto near srtt" true (Blockack.Rtt_estimator.rto e < 120)

let test_rtt_clamping () =
  let e = Blockack.Rtt_estimator.create ~floor:200 ~ceiling:400 ~initial_rto:1000 () in
  check Alcotest.int "initial clamped to ceiling" 400 (Blockack.Rtt_estimator.rto e);
  for _ = 1 to 50 do
    Blockack.Rtt_estimator.observe e 1
  done;
  check Alcotest.int "floor respected" 200 (Blockack.Rtt_estimator.rto e)

let test_rtt_backoff () =
  let e = Blockack.Rtt_estimator.create ~ceiling:1000 ~initial_rto:300 () in
  Blockack.Rtt_estimator.backoff e;
  check Alcotest.int "doubled" 600 (Blockack.Rtt_estimator.rto e);
  Blockack.Rtt_estimator.backoff e;
  check Alcotest.int "ceiling caps" 1000 (Blockack.Rtt_estimator.rto e)

let test_rtt_validation () =
  Alcotest.check_raises "bad floor" (Invalid_argument "Rtt_estimator.create: floor must be positive")
    (fun () -> ignore (Blockack.Rtt_estimator.create ~floor:0 ~initial_rto:10 ()));
  let e = Blockack.Rtt_estimator.create ~initial_rto:10 () in
  Alcotest.check_raises "negative sample"
    (Invalid_argument "Rtt_estimator.observe: negative sample") (fun () ->
      Blockack.Rtt_estimator.observe e (-1))

let test_adaptive_sender_tracks_rtt () =
  (* Grossly over-estimated initial rto; the sender's estimate must come
     down to the real round trip (~100-200) after a lossless run. *)
  let config = Config.make ~window:16 ~rto:5_000 ~adaptive_rto:true () in
  let engine = Engine.create ~seed:4 () in
  let sender = ref None and receiver = ref None in
  let delay = Ba_channel.Dist.Uniform (40, 60) in
  let data_link =
    Ba_channel.Link.create engine ~delay
      ~deliver:(fun d -> match !receiver with Some r -> Blockack.Receiver.on_data r d | None -> ())
      ()
  in
  let ack_link =
    Ba_channel.Link.create engine ~delay
      ~deliver:(fun a ->
        match !sender with Some s -> Blockack.Sender_multi.on_ack s a | None -> ())
      ()
  in
  let next = Ba_proto.Workload.supplier ~seed:1 ~size:16 ~count:300 in
  let s =
    Blockack.Sender_multi.create engine config ~tx:(Ba_channel.Link.send data_link)
      ~next_payload:next
  in
  let r =
    Blockack.Receiver.create engine config ~tx:(Ba_channel.Link.send ack_link)
      ~deliver:(fun _ -> ())
  in
  sender := Some s;
  receiver := Some r;
  Blockack.Sender_multi.pump s;
  Engine.run engine;
  check Alcotest.bool "done" true (Blockack.Sender_multi.is_done s);
  check Alcotest.bool "rto adapted down" true (Blockack.Sender_multi.rto_now s < 400);
  match Blockack.Sender_multi.srtt s with
  | Some srtt -> check Alcotest.bool "srtt plausible" true (srtt > 60. && srtt < 200.)
  | None -> Alcotest.fail "estimator should be active"

let test_adaptive_correct_under_loss () =
  let config = Config.make ~window:16 ~rto:250 ~adaptive_rto:true () in
  List.iter
    (fun seed ->
      let r =
        Harness.run Blockack.Protocols.multi ~seed ~messages:300 ~config ~data_loss:0.15
          ~ack_loss:0.15 ~data_delay:(Ba_channel.Dist.Uniform (20, 80))
          ~ack_delay:(Ba_channel.Dist.Uniform (20, 80)) ()
      in
      if not (Harness.correct r) then Alcotest.failf "seed %d incorrect" seed)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Slot reuse: Sender_multi with a lead band *)

let reuse_config = Config.make ~window:4 ~rto:200 ~wire_modulus:(Some 16) ()

let test_reuse_runs_ahead_of_gaps () =
  let engine = Engine.create () in
  let sent = Queue.create () in
  let s =
    Blockack.Sender_multi.create ~lead:8 engine reuse_config
      ~tx:(fun d -> Queue.add d sent)
      ~next_payload:(Ba_proto.Workload.supplier ~seed:0 ~size:8 ~count:20)
  in
  Blockack.Sender_multi.pump s;
  check Alcotest.int "window of 4 sent" 4 (Queue.length sent);
  (* Ack 1..3 but not 0: a classic sender would be stuck at 4 in flight
     ending at seq 3; the reuse sender pushes on to seq 7. *)
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(1) ~hi:(3));
  check Alcotest.int "unacked budget refilled" 4 (Blockack.Sender_multi.unacked s);
  check Alcotest.int "ran ahead" 7 (Blockack.Sender_multi.ns s);
  check Alcotest.int "na still blocked" 0 (Blockack.Sender_multi.na s);
  (* The lead bound stops it at na + lead = 8 even with budget. *)
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(4) ~hi:(6));
  check Alcotest.int "lead bound caps ns" 8 (Blockack.Sender_multi.ns s);
  (* Acking 0 releases everything. *)
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(0) ~hi:(0));
  check Alcotest.int "na jumps the whole run" 7 (Blockack.Sender_multi.na s)

let test_reuse_requires_lead_ge_window () =
  let engine = Engine.create () in
  Alcotest.check_raises "lead < window"
    (Invalid_argument "Sender_core.create: lead must be >= window") (fun () ->
      ignore
        (Blockack.Sender_multi.create ~lead:2 engine reuse_config
           ~tx:(fun _ -> ())
           ~next_payload:(fun () -> raise Ba_proto.Protocol.Exhausted)))

let test_reuse_rejects_small_modulus () =
  let engine = Engine.create () in
  (* The flight band is lead wide, so reconstruction needs n >= 2*lead —
     stricter than Seqcodec's own 2w bound, and rejected with its own
     message before the codec ever sees the modulus. *)
  Alcotest.check_raises "n < 2*lead"
    (Invalid_argument "Sender_core.create: modulus 15 < 2*lead=16 loses information")
    (fun () ->
      ignore
        (Blockack.Sender_multi.create ~lead:8 engine
           (Config.make ~window:4 ~rto:200 ~wire_modulus:(Some 15) ())
           ~tx:(fun _ -> ())
           ~next_payload:(fun () -> raise Ba_proto.Protocol.Exhausted)))

let test_reuse_protocol_correct_e2e () =
  let config = Config.make ~window:8 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:80 () in
  List.iter
    (fun (seed, loss) ->
      let r =
        Harness.run (Blockack.Protocols.reuse ()) ~seed ~messages:400 ~config ~data_loss:loss
          ~ack_loss:loss ~data_delay:(Ba_channel.Dist.Uniform (20, 80))
          ~ack_delay:(Ba_channel.Dist.Uniform (20, 80)) ()
      in
      if not (Harness.correct r) then Alcotest.failf "seed %d loss %.2f incorrect" seed loss)
    [ (1, 0.); (2, 0.1); (3, 0.25); (4, 0.25) ]

let test_reuse_beats_plain_under_loss () =
  let plain_config = Config.make ~window:8 ~rto:300 ~wire_modulus:(Some 16) ~max_transit:60 () in
  let reuse_config = Config.make ~window:8 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:60 () in
  let delay = Ba_channel.Dist.Uniform (40, 60) in
  let run proto config =
    (Harness.run proto ~seed:5 ~messages:800 ~config ~data_loss:0.1 ~ack_loss:0.1
       ~data_delay:delay ~ack_delay:delay ())
      .Harness.ticks
  in
  let plain = run Blockack.Protocols.multi plain_config in
  let reuse = run (Blockack.Protocols.reuse ()) reuse_config in
  check Alcotest.bool
    (Printf.sprintf "reuse (%d) faster than plain (%d)" reuse plain)
    true (reuse < plain)

(* The pressure signals bind a lead band as they bind the plain window:
   the fabric's clamp caps the unacknowledged messages.
   [peak] is the most ever unacknowledged, read at every transmission of
   a lossy transfer through the protocol interface. *)
let reuse_peak_unacked ?clamp config =
  let (module P : Ba_proto.Protocol.S) = Blockack.Protocols.reuse () in
  let engine = Engine.create ~seed:3 () in
  let sender = ref None and receiver = ref None and peak = ref 0 in
  let delay = Ba_channel.Dist.Uniform (40, 60) in
  let data_link =
    Ba_channel.Link.create engine ~loss:0.1 ~delay
      ~deliver:(fun d -> Option.iter (fun r -> P.receiver_on_data r d) !receiver)
      ()
  in
  let ack_link =
    Ba_channel.Link.create engine ~loss:0.1 ~delay
      ~deliver:(fun a -> Option.iter (fun s -> P.sender_on_ack s a) !sender)
      ()
  in
  let s =
    P.create_sender engine config
      ~tx:(fun d ->
        Option.iter (fun s -> peak := max !peak (P.sender_outstanding s)) !sender;
        Ba_channel.Link.send data_link d)
      ~next_payload:(Ba_proto.Workload.supplier ~seed:3 ~size:8 ~count:200)
  in
  receiver :=
    Some (P.create_receiver engine config ~tx:(Ba_channel.Link.send ack_link) ~deliver:ignore);
  sender := Some s;
  (match (P.overload, clamp) with
  | Some o, Some c -> o.Ba_proto.Protocol.sender_clamp_window s c
  | _, None -> ()
  | None, Some _ -> Alcotest.fail "blockack-reuse has no window clamp");
  P.sender_pump s;
  Engine.run engine;
  check Alcotest.bool "transfer completes" true (P.sender_done s);
  !peak

let test_reuse_obeys_budget_and_clamp () =
  let config = Config.make ~window:8 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:60 () in
  check Alcotest.int "unbounded: the window fills" 8 (reuse_peak_unacked config);
  check Alcotest.int "clamp 2" 2 (reuse_peak_unacked ~clamp:2 config);
  check Alcotest.int "clamp 1" 1 (reuse_peak_unacked ~clamp:1 config)

(* Pinned transcripts: [blockack-reuse] over a grid of lead factors,
   windows, loss, jitter, ack coalescing and wire moduli, each run
   rendered as the harness's result line plus its wire trace (every
   frame handed to either link, stamped with its send time, including
   the ones the link then loses). The digest was recorded before slot
   reuse moved into [Sender_core], so that move is held to unchanged
   behaviour frame for frame. *)
let reuse_transcript ~seed ~lead_factor ~window ~loss ~jitter ~coalesce ~modulus =
  let trace = Buffer.create 4096 in
  let record engine pp v =
    Buffer.add_string trace (Format.asprintf "%d %a\n" (Engine.now engine) pp v);
    Ba_channel.Link.Deliver
  in
  let max_transit = 50 + jitter in
  let delay =
    if jitter = 0 then Ba_channel.Dist.Constant 50 else Ba_channel.Dist.Uniform (50, max_transit)
  in
  let config =
    Config.make ~window ~rto:((2 * max_transit) + coalesce + 100) ~ack_coalesce:coalesce
      ~max_transit
      ~wire_modulus:(if modulus then Some (2 * lead_factor * window) else None)
      ()
  in
  let r =
    Harness.run (Blockack.Protocols.reuse ~lead_factor ()) ~seed ~messages:60 ~config
      ~data_loss:loss ~ack_loss:loss ~data_delay:delay ~ack_delay:delay
      ~on_setup:(fun cell ->
        let engine = Ba_proto.Cell.engine cell in
        Ba_channel.Link.set_fault (Ba_proto.Cell.data_link cell) (record engine Wire.pp_data);
        Ba_channel.Link.set_fault (Ba_proto.Cell.ack_link cell) (record engine Wire.pp_ack))
      ()
  in
  Format.asprintf "%a\n%s" Harness.pp_result r (Buffer.contents trace)

let test_reuse_pinned_transcripts () =
  let all = Buffer.create (1 lsl 20) and seed = ref 0 in
  List.iter
    (fun lead_factor ->
      List.iter
        (fun window ->
          List.iter
            (fun loss ->
              List.iter
                (fun jitter ->
                  List.iter
                    (fun coalesce ->
                      List.iter
                        (fun modulus ->
                          incr seed;
                          Buffer.add_string all
                            (reuse_transcript ~seed:!seed ~lead_factor ~window ~loss ~jitter
                               ~coalesce ~modulus))
                        [ false; true ])
                    [ 0; 10 ])
                [ 0; 60 ])
            [ 0.; 0.05; 0.2 ])
        [ 4; 8; 16 ])
    [ 2; 3 ];
  check Alcotest.string "reuse transcript digest" "f0c26e55dd85860f9a71b1e259372987"
    (Digest.to_hex (Digest.string (Buffer.contents all)))

(* ------------------------------------------------------------------ *)
(* Dynamic (AIMD) window *)

let test_dynamic_window_ramps_and_halves () =
  let config = Config.make ~window:16 ~rto:200 ~dynamic_window:true () in
  let engine = Engine.create () in
  let sent = Queue.create () in
  let s =
    Blockack.Sender_multi.create engine config
      ~tx:(fun d -> Queue.add d sent)
      ~next_payload:(Ba_proto.Workload.supplier ~seed:0 ~size:8 ~count:100)
  in
  Blockack.Sender_multi.pump s;
  check Alcotest.int "starts at cwnd=1" 1 (Queue.length sent);
  check Alcotest.int "cwnd initial" 1 (Blockack.Sender_multi.cwnd s);
  (* Each full-cwnd acknowledgment grows the window by one. *)
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(0) ~hi:(0));
  check Alcotest.int "cwnd after first ack" 2 (Blockack.Sender_multi.cwnd s);
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(1) ~hi:(2));
  check Alcotest.int "cwnd grows" 3 (Blockack.Sender_multi.cwnd s);
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:(3) ~hi:(5));
  check Alcotest.int "cwnd=4" 4 (Blockack.Sender_multi.cwnd s);
  (* Silence: timers expire, multiplicative decrease kicks in. *)
  Queue.clear sent;
  Ba_sim.Engine.run ~until:(Ba_sim.Engine.now engine + 250) engine;
  check Alcotest.bool "halved on timeout" true (Blockack.Sender_multi.cwnd s <= 2)

let test_dynamic_window_correct_over_bottleneck () =
  let config = Config.make ~window:64 ~rto:400 ~dynamic_window:true () in
  let r =
    Harness.run Blockack.Protocols.multi ~seed:3 ~messages:500 ~config
      ~data_delay:(Ba_channel.Dist.Constant 50) ~ack_delay:(Ba_channel.Dist.Constant 50)
      ~data_bottleneck:(10, 10) ()
  in
  check Alcotest.bool "correct" true (Harness.correct r)

let test_fixed_oversized_window_collapses_on_bottleneck () =
  (* Ablation A2's fixed-vs-AIMD contrast, pinned as a test. The fixed
     w=32 run is not a congestion collapse but the livelock recorded
     below: it stops at 105 of 300 delivered, and its 79,955
     retransmissions are that livelock's count at the deadline. *)
  let run ~dynamic =
    let config = Config.make ~window:32 ~rto:400 ~dynamic_window:dynamic () in
    Harness.run Blockack.Protocols.multi ~seed:3 ~messages:300 ~config
      ~data_delay:(Ba_channel.Dist.Constant 50) ~ack_delay:(Ba_channel.Dist.Constant 50)
      ~data_bottleneck:(10, 10) ~deadline:1_000_000 ()
  in
  let fixed = run ~dynamic:false in
  let aimd = run ~dynamic:true in
  check Alcotest.bool "AIMD completes" true aimd.Harness.completed;
  check Alcotest.bool "AIMD avoids the retransmission storm" true
    (aimd.Harness.retransmissions * 10 < max 1 fixed.Harness.retransmissions)

(* A recorded liveness defect, not a fix (ROADMAP item 18): A2's
   full-size fixed w=32 row, which is a permanent livelock, not a
   congestion collapse. Deliveries stop at 105 (= [nr]). The frames held
   behind [nr] keep their timers, which fire as one burst every rto and
   fill the 10-tick server and its 10-frame queue; [nr]'s own timer
   fires just behind the burst and its frame is tail-dropped, every
   round. Safety holds. A fix makes this run complete, and has to change
   this test on purpose. The run's one line names those tail drops. *)
let test_a2_livelock_recorded () =
  List.iter
    (fun (deadline, retx, queue_drops) ->
      let r = Recorded.a2_run ~window:32 ~deadline in
      let at what = Printf.sprintf "%s at %d ticks" what deadline in
      check Alcotest.bool (at "stuck") false r.Harness.completed;
      check Alcotest.int (at "105 delivered") 105 r.Harness.delivered;
      check Alcotest.int (at "retransmissions") retx r.Harness.retransmissions;
      check Alcotest.int (at "tail drops") queue_drops r.Harness.data_queue_dropped;
      let line = Format.asprintf "%a" Harness.pp_result r in
      check Alcotest.bool (at "the line ends with the tail drops") true
        (String.ends_with ~suffix:(Printf.sprintf ", queue-drops=%d" queue_drops) line);
      check Alcotest.int (at "no duplicate") 0 r.Harness.duplicates;
      check Alcotest.int (at "no misordering") 0 r.Harness.misordered;
      check Alcotest.int (at "no corruption") 0 r.Harness.corrupted)
    [ (100_000, 7_955, 356); (1_000_000, 79_955, 2_606) ]

(* ------------------------------------------------------------------ *)
(* Tracer *)

let test_tracer_records_and_renders () =
  let t = Ba_trace.Tracer.create () in
  Ba_trace.Tracer.record t ~time:0 ~side:Ba_trace.Tracer.Sender "DATA 0 ->";
  Ba_trace.Tracer.record t ~time:50 ~side:Ba_trace.Tracer.Receiver "-> DATA 0";
  check Alcotest.int "two events" 2 (List.length (Ba_trace.Tracer.events t));
  let rendered = Ba_trace.Tracer.render t in
  check Alcotest.bool "mentions both" true
    (String.length rendered > 0
    && String.index_opt rendered 'D' <> None
    && List.length (String.split_on_char '\n' rendered) >= 4)

let test_tracer_time_window () =
  let t = Ba_trace.Tracer.create () in
  List.iter
    (fun time -> Ba_trace.Tracer.record t ~time ~side:Ba_trace.Tracer.Sender "x")
    [ 10; 20; 30; 40 ];
  let windowed = Ba_trace.Tracer.render ~from_time:15 ~until_time:35 t in
  let lines = List.length (String.split_on_char '\n' windowed) in
  (* header + rule + 2 events + trailing newline *)
  check Alcotest.int "window filters" 5 lines

let test_tracer_capacity () =
  let t = Ba_trace.Tracer.create ~capacity:10 () in
  for i = 1 to 100 do
    Ba_trace.Tracer.record t ~time:i ~side:Ba_trace.Tracer.Sender "e"
  done;
  check Alcotest.bool "bounded" true (List.length (Ba_trace.Tracer.events t) <= 10);
  Ba_trace.Tracer.clear t;
  check Alcotest.int "cleared" 0 (List.length (Ba_trace.Tracer.events t))

(* Every record of the oldest half dropped at the capacity is counted,
   and the rendered diagram says so instead of silently starting late. *)
let test_tracer_counts_dropped () =
  let t = Ba_trace.Tracer.create ~capacity:10 () in
  for i = 1 to 100 do
    Ba_trace.Tracer.record t ~time:i ~side:Ba_trace.Tracer.Sender "e"
  done;
  let kept = List.length (Ba_trace.Tracer.events t) in
  check Alcotest.int "kept + dropped = recorded" 100 (kept + Ba_trace.Tracer.dropped t);
  let first_line s = List.nth (String.split_on_char '\n' s) 2 in
  check Alcotest.string "render reports the drop"
    (Printf.sprintf "     ... | %d earlier events dropped (the tracer keeps at most 10)"
       (100 - kept))
    (first_line (Ba_trace.Tracer.render ~until_time:0 t));
  Ba_trace.Tracer.clear t;
  check Alcotest.int "clear resets the count" 0 (Ba_trace.Tracer.dropped t);
  check Alcotest.bool "no drop line once cleared" false
    (String.length (first_line (Ba_trace.Tracer.render t)) > 0)

(* The tracing wrapper observes without steering: every registry
   protocol gives the same result with and without it, lossless and
   lossy, and the tracer holds one send event per frame the harness
   counted on both links. *)
let test_tracer_protocol_transparent () =
  List.iter
    (fun (e : Ba_registry.Registry.entry) ->
      let config = Ba_registry.Registry.config e () in
      List.iter
        (fun (seed, loss) ->
          let run p =
            Harness.run p ~seed ~messages:60 ~config ~data_loss:loss ~ack_loss:loss ()
          in
          let t = Ba_trace.Tracer.create ~capacity:max_int () in
          let plain = run e.protocol and traced = run (Ba_trace.Tracer.protocol t e.protocol) in
          let where = Printf.sprintf "%s seed=%d loss=%g" e.name seed loss in
          if plain <> traced then
            Alcotest.failf "%s: traced run differs:\n%a\n%a" where Harness.pp_result plain
              Harness.pp_result traced;
          let sends =
            List.length
              (List.filter
                 (fun (ev : Ba_trace.Tracer.event) ->
                   match ev.side with
                   | Ba_trace.Tracer.Sender -> String.starts_with ~prefix:"DATA " ev.label
                   | Ba_trace.Tracer.Receiver -> String.starts_with ~prefix:"<- ACK " ev.label)
                 (Ba_trace.Tracer.events t))
          in
          check Alcotest.int (where ^ ": one send event per frame")
            (plain.data_sent + plain.acks_sent) sends)
        [ (1, 0.); (2, 0.); (3, 0.); (1, 0.1); (2, 0.1); (3, 0.1) ])
    Ba_registry.Registry.all

(* ------------------------------------------------------------------ *)
(* Duplex with piggybacked acknowledgments *)

let duplex_count e = Ba_util.Counters.get (Blockack.Duplex.counters e)

let test_duplex_bidirectional_in_order () =
  let got_a = ref [] and got_b = ref [] in
  let d =
    Blockack.Duplex.create ~seed:8 ~loss:0.1
      ~on_receive_a:(fun m -> got_a := m :: !got_a)
      ~on_receive_b:(fun m -> got_b := m :: !got_b)
      ()
  in
  for i = 1 to 100 do
    Blockack.Duplex.send (Blockack.Duplex.a d) (Printf.sprintf "a->b %d" i);
    Blockack.Duplex.send (Blockack.Duplex.b d) (Printf.sprintf "b->a %d" i)
  done;
  Blockack.Duplex.run d;
  check Alcotest.bool "idle" true (Blockack.Duplex.idle d);
  check
    (Alcotest.list Alcotest.string)
    "A received B's stream in order"
    (List.init 100 (fun i -> Printf.sprintf "b->a %d" (i + 1)))
    (List.rev !got_a);
  check
    (Alcotest.list Alcotest.string)
    "B received A's stream in order"
    (List.init 100 (fun i -> Printf.sprintf "a->b %d" (i + 1)))
    (List.rev !got_b)

let test_duplex_piggybacks () =
  (* Piggybacking needs traffic in flight when acknowledgments arise, so
     drive a paced conversation (one message every 20 ticks each way)
     rather than a single burst — with bursts both windows are full
     exactly when acks are pending, and nothing can carry them. *)
  let d =
    (* Hold acks slightly longer than the app's 20-tick pacing so the
       next data frame can pick them up. *)
    Blockack.Duplex.create ~seed:3 ~piggyback_hold:25
      ~on_receive_a:(fun _ -> ())
      ~on_receive_b:(fun _ -> ())
      ()
  in
  let engine = Blockack.Duplex.engine d in
  for i = 1 to 200 do
    Ba_sim.Engine.schedule engine ~delay:(i * 20) (fun () ->
        Blockack.Duplex.send (Blockack.Duplex.a d) (Printf.sprintf "a%d" i);
        Blockack.Duplex.send (Blockack.Duplex.b d) (Printf.sprintf "b%d" i))
  done;
  Blockack.Duplex.run d;
  check Alcotest.bool "idle" true (Blockack.Duplex.idle d);
  let sa = duplex_count (Blockack.Duplex.a d) in
  check Alcotest.bool
    (Printf.sprintf "most acks ride on data (piggy=%d pure=%d)" (sa Piggybacked_acks)
       (sa Acks_sent))
    true
    (sa Piggybacked_acks > sa Acks_sent);
  check Alcotest.int "no retransmissions lossless" 0 (sa Retransmissions);
  (* The acknowledgment channel is then nearly free. *)
  check Alcotest.bool "frame overhead below 25%" true
    ((sa Data_sent + sa Acks_sent) * 100 < sa Data_sent * 125)

let test_duplex_one_sided_still_acks () =
  (* No reverse data: every ack must eventually go out as a pure frame. *)
  let got = ref 0 in
  let d =
    Blockack.Duplex.create ~seed:4
      ~on_receive_a:(fun _ -> ())
      ~on_receive_b:(fun _ -> incr got)
      ()
  in
  for i = 1 to 50 do
    Blockack.Duplex.send (Blockack.Duplex.a d) (string_of_int i)
  done;
  Blockack.Duplex.run d;
  check Alcotest.int "all delivered" 50 !got;
  check Alcotest.bool "idle" true (Blockack.Duplex.idle d);
  let sb = duplex_count (Blockack.Duplex.b d) in
  check Alcotest.bool "B sent pure acks" true (sb Acks_sent > 0);
  check Alcotest.int "B sent no data" 0 (sb Data_sent)

let test_duplex_lossy_both_ways () =
  let d =
    Blockack.Duplex.create ~seed:11 ~loss:0.2
      ~config:(Blockack.Config.make ~window:8 ~rto:400 ~wire_modulus:(Some 16) ())
      ~on_receive_a:(fun _ -> ())
      ~on_receive_b:(fun _ -> ())
      ()
  in
  for i = 1 to 150 do
    Blockack.Duplex.send (Blockack.Duplex.a d) (Printf.sprintf "x%d" i);
    if i mod 3 = 0 then Blockack.Duplex.send (Blockack.Duplex.b d) (Printf.sprintf "y%d" i)
  done;
  Blockack.Duplex.run d;
  check Alcotest.bool "completes under loss" true (Blockack.Duplex.idle d)

(* One-way sessions: A sends, B only acknowledges, and nothing is held. *)
let one_way () =
  let got = ref [] in
  let d =
    Blockack.Duplex.create ~piggyback_hold:0
      ~on_receive_a:(fun _ -> ())
      ~on_receive_b:(fun m -> got := m :: !got)
      ()
  in
  (d, got)

let test_duplex_one_way_roundtrip () =
  let d, got = one_way () in
  List.iter (Blockack.Duplex.send (Blockack.Duplex.a d)) [ "alpha"; "beta"; "gamma" ];
  Blockack.Duplex.run d;
  check (Alcotest.list Alcotest.string) "in order" [ "alpha"; "beta"; "gamma" ] (List.rev !got);
  check Alcotest.bool "idle" true (Blockack.Duplex.idle d);
  check Alcotest.int "submitted" 3 (duplex_count (Blockack.Duplex.a d) Messages);
  check Alcotest.int "delivered" 3 (duplex_count (Blockack.Duplex.b d) Delivered)

(* Sending into a session that has already gone quiet restarts it. *)
let test_duplex_one_way_incremental () =
  let d, got = one_way () in
  Blockack.Duplex.send (Blockack.Duplex.a d) "first";
  Blockack.Duplex.run d;
  check (Alcotest.list Alcotest.string) "first delivered" [ "first" ] !got;
  check Alcotest.bool "idle between sends" true (Blockack.Duplex.idle d);
  Blockack.Duplex.send (Blockack.Duplex.a d) "second";
  Blockack.Duplex.run d;
  check (Alcotest.list Alcotest.string) "both, in order" [ "first"; "second" ] (List.rev !got);
  check Alcotest.bool "idle" true (Blockack.Duplex.idle d)

(* A negative hold is refused up front, not at the first held ack. *)
let test_duplex_rejects_negative_hold () =
  Alcotest.check_raises "negative hold"
    (Invalid_argument "Duplex.create: piggyback_hold must be >= 0") (fun () ->
      ignore
        (Blockack.Duplex.create ~piggyback_hold:(-5)
           ~on_receive_a:(fun _ -> ())
           ~on_receive_b:(fun _ -> ())
           ()))

(* Holding an ack lengthens its transit: with a bounded modulus the rto
   must cover the hold too (default delay Uniform (40, 60), so 120 + 0 +
   130 = 250 reaches the default rto of 250). *)
let test_duplex_rejects_short_rto () =
  Alcotest.check_raises "rto within the held round trip"
    (Invalid_argument
       "Duplex.create: rto 250 must exceed 2 * max delay + ack_coalesce + piggyback_hold = 250")
    (fun () ->
      ignore
        (Blockack.Duplex.create ~piggyback_hold:130
           ~on_receive_a:(fun _ -> ())
           ~on_receive_b:(fun _ -> ())
           ()))

(* [Config.hold_duration] with [max_transit] omits the piggyback hold. *)
let test_duplex_rejects_max_transit_with_hold () =
  Alcotest.check_raises "max_transit with a hold"
    (Invalid_argument
       "Duplex.create: max_transit needs piggyback_hold = 0 (the window guard's hold omits it)")
    (fun () ->
      ignore
        (Blockack.Duplex.create ~piggyback_hold:1
           ~config:(Blockack.Config.make ~wire_modulus:(Some 32) ~max_transit:60 ())
           ~on_receive_a:(fun _ -> ())
           ~on_receive_b:(fun _ -> ())
           ()))

let prop_duplex_always_correct =
  QCheck.Test.make ~name:"duplex delivers both directions in order for any seed/loss" ~count:20
    QCheck.(pair (Arb.int_range 1 100_000) (int_bound 20))
    (fun (seed, loss_pct) ->
      let loss = float_of_int loss_pct /. 100. in
      let got_a = ref [] and got_b = ref [] in
      let d =
        Blockack.Duplex.create ~seed ~loss
          ~on_receive_a:(fun m -> got_a := m :: !got_a)
          ~on_receive_b:(fun m -> got_b := m :: !got_b)
          ()
      in
      let n = 60 in
      for i = 1 to n do
        Blockack.Duplex.send (Blockack.Duplex.a d) (Printf.sprintf "a%d" i);
        if i mod 2 = 0 then Blockack.Duplex.send (Blockack.Duplex.b d) (Printf.sprintf "b%d" i)
      done;
      Blockack.Duplex.run ~until:10_000_000 d;
      let got_a = List.rev !got_a and got_b = List.rev !got_b in
      (Blockack.Duplex.idle d
      && got_b = List.init n (fun i -> Printf.sprintf "a%d" (i + 1))
      && got_a = List.init (n / 2) (fun i -> Printf.sprintf "b%d" (2 * (i + 1))))
      || QCheck.Test.fail_reportf
           "seed %d, %d%% loss each way, %d messages a->b and %d b->a: idle %b\n\
            b received %d: %s\na received %d: %s"
           seed loss_pct n (n / 2) (Blockack.Duplex.idle d) (List.length got_b)
           (String.concat " " got_b) (List.length got_a) (String.concat " " got_a))

let prop_engine_fires_in_time_order =
  QCheck.Test.make ~name:"engine fires any schedule in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 500))
    (fun delays ->
      let e = Engine.create () in
      let fired = ref [] in
      List.iter
        (fun d -> Ba_sim.Engine.schedule e ~delay:d (fun () -> fired := Engine.now e :: !fired))
        delays;
      Engine.run e;
      let times = List.rev !fired in
      List.length times = List.length delays
      && List.sort compare times = times
      && List.sort compare times = List.sort compare delays)

(* ------------------------------------------------------------------ *)
(* Experiment tables: structural sanity + headline shapes (quick mode). *)

let row_count t = List.length t.E.rows

let test_tables_well_formed () =
  List.iter
    (fun t ->
      check Alcotest.bool (t.E.id ^ " has rows") true (row_count t > 0);
      let arity = List.length t.E.headers in
      List.iter
        (fun row -> check Alcotest.int (t.E.id ^ " row arity") arity (List.length row))
        t.E.rows)
    (E.all ~quick:true ())

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_t1_shape () =
  let t = E.t1_intro_scenario () in
  match t.E.rows with
  | [ gbn; ba ] ->
      check Alcotest.bool "gbn violated" true (contains ~needle:"VIOLATED" (List.nth gbn 2));
      check Alcotest.string "blockack safe" "safe" (List.nth ba 2)
  | _ -> Alcotest.fail "T1 must have exactly two rows"

let test_t2_shape () =
  let t = E.t2_verification ~quick:true () in
  List.iter
    (fun row -> check Alcotest.string "every row matches the paper" "as proven" (List.nth row 5))
    t.E.rows

let test_t2_capped_is_not_proven () =
  let section2 ~w ~limit = { Ba_model.Ba_kernel.w; lead = None; n = None; limit; timer = Whole_channel } in
  let r = Ba_verify.Explorer.run_spec ~max_states:10 (Ba_model.Ba_kernel.spec (section2 ~w:2 ~limit:4)) in
  check Alcotest.string "capped run" "CAPPED" (E.t2_verdict ~expect_ok:true r);
  let r = Ba_verify.Explorer.run_spec (Ba_model.Ba_kernel.spec (section2 ~w:1 ~limit:2)) in
  check Alcotest.string "full run" "as proven" (E.t2_verdict ~expect_ok:true r)

let test_f3_shape () =
  let t = E.f3_recovery_time ~quick:true () in
  (* Simple recovery time grows with b; multi stays flat. *)
  let nth_int row i = int_of_string (List.nth row i) in
  let simples = List.map (fun r -> nth_int r 1) t.E.rows in
  let multis = List.map (fun r -> nth_int r 2) t.E.rows in
  check Alcotest.bool "simple grows" true (List.nth simples (List.length simples - 1) > List.hd simples * 2);
  let mmin = List.fold_left min max_int multis and mmax = List.fold_left max 0 multis in
  check Alcotest.bool "multi flat" true (mmax - mmin < 200)

let test_f5_shape () =
  let t = E.f5_slot_reuse ~quick:true () in
  (* At the highest loss the reuse gain must be positive. *)
  let last = List.nth t.E.rows (row_count t - 1) in
  let gain = List.nth last 3 in
  check Alcotest.bool "positive gain under loss" true (gain.[0] = '+' && gain <> "+0%")

let () =
  Alcotest.run "extras"
    [
      ( "source",
        [
          Alcotest.test_case "passthrough" `Quick test_source_passthrough;
          Alcotest.test_case "an empty payload is a payload" `Quick test_source_empty_payload;
          Alcotest.test_case "exhausted does not lose" `Quick test_source_exhausted_does_not_lose;
          Alcotest.test_case "replenished" `Quick test_source_replenished;
          Alcotest.test_case "sender replays across growth" `Quick test_sender_replay_across_growth;
          Alcotest.test_case "release slides the base" `Quick test_source_release;
        ] );
      ( "rtt_estimator",
        [
          Alcotest.test_case "initial" `Quick test_rtt_initial;
          Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
          Alcotest.test_case "converges" `Quick test_rtt_converges;
          Alcotest.test_case "clamping" `Quick test_rtt_clamping;
          Alcotest.test_case "backoff" `Quick test_rtt_backoff;
          Alcotest.test_case "validation" `Quick test_rtt_validation;
          Alcotest.test_case "adaptive sender tracks rtt" `Quick test_adaptive_sender_tracks_rtt;
          Alcotest.test_case "adaptive correct under loss" `Quick test_adaptive_correct_under_loss;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "runs ahead of gaps" `Quick test_reuse_runs_ahead_of_gaps;
          Alcotest.test_case "lead >= window required" `Quick test_reuse_requires_lead_ge_window;
          Alcotest.test_case "modulus < 2*lead rejected" `Quick test_reuse_rejects_small_modulus;
          Alcotest.test_case "correct end to end" `Quick test_reuse_protocol_correct_e2e;
          Alcotest.test_case "beats plain under loss" `Quick test_reuse_beats_plain_under_loss;
          Alcotest.test_case "pinned transcripts" `Quick test_reuse_pinned_transcripts;
          Alcotest.test_case "budget and clamp bind" `Quick test_reuse_obeys_budget_and_clamp;
        ] );
      ( "dynamic_window",
        [
          Alcotest.test_case "ramps and halves" `Quick test_dynamic_window_ramps_and_halves;
          Alcotest.test_case "correct over bottleneck" `Quick
            test_dynamic_window_correct_over_bottleneck;
          Alcotest.test_case "fixed oversized window collapses" `Quick
            test_fixed_oversized_window_collapses_on_bottleneck;
          Alcotest.test_case "recorded defect: A2's w=32 livelocks at 105" `Quick
            test_a2_livelock_recorded;
        ] );
      ( "tracer",
        [
          Alcotest.test_case "records and renders" `Quick test_tracer_records_and_renders;
          Alcotest.test_case "time window" `Quick test_tracer_time_window;
          Alcotest.test_case "capacity bound" `Quick test_tracer_capacity;
          Alcotest.test_case "dropped events counted" `Quick test_tracer_counts_dropped;
          Alcotest.test_case "protocol wrapper changes nothing" `Quick
            test_tracer_protocol_transparent;
        ] );
      ( "duplex",
        [
          Alcotest.test_case "bidirectional in order" `Quick test_duplex_bidirectional_in_order;
          Alcotest.test_case "piggybacks acks on data" `Quick test_duplex_piggybacks;
          Alcotest.test_case "one-sided still acks" `Quick test_duplex_one_sided_still_acks;
          Alcotest.test_case "lossy both ways" `Quick test_duplex_lossy_both_ways;
          Alcotest.test_case "one-way roundtrip" `Quick test_duplex_one_way_roundtrip;
          Alcotest.test_case "one-way incremental sends" `Quick test_duplex_one_way_incremental;
          Alcotest.test_case "negative hold rejected" `Quick test_duplex_rejects_negative_hold;
          Alcotest.test_case "short rto rejected" `Quick test_duplex_rejects_short_rto;
          Alcotest.test_case "max_transit with hold rejected" `Quick
            test_duplex_rejects_max_transit_with_hold;
          qcheck prop_duplex_always_correct;
          qcheck prop_engine_fires_in_time_order;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "tables well formed" `Quick test_tables_well_formed;
          Alcotest.test_case "T1 shape" `Quick test_t1_shape;
          Alcotest.test_case "T2 shape" `Quick test_t2_shape;
          Alcotest.test_case "T2 capped is not proven" `Quick test_t2_capped_is_not_proven;
          Alcotest.test_case "F3 shape" `Quick test_f3_shape;
          Alcotest.test_case "F5 shape" `Quick test_f5_shape;
        ] );
    ]

let _ = qcheck
