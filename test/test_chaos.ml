(* Chaos-campaign smoke tests (also wired to the `chaos-smoke` alias):
   a CI-sized sweep asserting the safety/recovery split the full
   `ba_chaos` run demonstrates at 50 seeds, and hostile peers sending
   well-formed frames with arbitrary fields. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Chaos = Ba_verify.Chaos
module Fault_plan = Ba_channel.Fault_plan
module Crash_plan = Ba_proto.Crash_plan

let seeds = List.init 10 (fun i -> i + 1)
let messages = 30

let test_class_names_roundtrip () =
  List.iter
    (fun c ->
      check Alcotest.bool "name roundtrips" true (Chaos.class_of_name (Chaos.class_name c) = Some c))
    Chaos.all_classes;
  check Alcotest.bool "unknown rejected" true (Chaos.class_of_name "gremlins" = None)

let test_plans_deterministic () =
  List.iter
    (fun c ->
      let a = Chaos.plans_for c ~seed:3 and b = Chaos.plans_for c ~seed:3 in
      check Alcotest.bool "same seed, same schedule" true (a = b))
    Chaos.all_classes

(* Every class's channel plans must survive the Fault_plan grammar:
   print the plans, parse the key back, print again — byte-identical.
   Covers every fault class (including the clean-link crash and overload
   classes, whose plans print as "none") across a seed sweep. The crash
   plan and the squeeze need no grammar: a replay key names the seed,
   and they are pure functions of it (see the incident rule below). *)
let test_campaign_plans_roundtrip () =
  List.iter
    (fun c ->
      List.iter
        (fun seed ->
          let i = Chaos.incident c ~seed in
          List.iter
            (fun p ->
              let key = Fault_plan.to_string p in
              match Fault_plan.of_string key with
              | Ok q ->
                  check Alcotest.string
                    (Printf.sprintf "%s seed=%d replays" (Chaos.class_name c) seed)
                    key (Fault_plan.to_string q)
              | Error e ->
                  Alcotest.failf "%s seed=%d: %S did not parse: %s" (Chaos.class_name c) seed
                    key e)
            [ i.Chaos.data_plan; i.Chaos.ack_plan ])
        (List.init 25 (fun i -> i + 1)))
    Chaos.all_classes

(* The incident rule: exactly the crash and storm classes bring a crash
   schedule, exactly the overload and storm classes a squeeze, and every
   ingredient is the class's own pure function of the seed. *)
let test_incident_ingredients () =
  List.iter
    (fun c ->
      List.iter
        (fun seed ->
          let i = Chaos.incident c ~seed in
          let name what = Printf.sprintf "%s seed=%d %s" (Chaos.class_name c) seed what in
          check Alcotest.bool (name "crash plan")
            (c = Chaos.Crash || c = Chaos.Storm)
            (i.Chaos.crash_plan <> Crash_plan.none);
          check Alcotest.bool (name "squeeze")
            (c = Chaos.Overload || c = Chaos.Storm)
            (i.Chaos.squeeze <> None);
          check Alcotest.bool (name "channel plans") true
            ((i.Chaos.data_plan, i.Chaos.ack_plan) = Chaos.plans_for c ~seed);
          check Alcotest.bool (name "replay key") true
            (i.Chaos.fault = c && i.Chaos.seed = seed))
        (List.init 25 (fun i -> i + 1)))
    Chaos.all_classes

(* The compound class: every ingredient present, blockack-multi survives
   the composition, and the recovery accounting shows the crash plan
   actually fired inside the storm. *)
let test_storm_composes_and_blockack_survives () =
  let data_plan, ack_plan = Chaos.plans_for Chaos.Storm ~seed:3 in
  check Alcotest.bool "storm brings a bursty data channel" true
    (Fault_plan.to_string data_plan <> Fault_plan.to_string (Fault_plan.make ()));
  check Alcotest.bool "storm brings a bursty ack channel" true
    (Fault_plan.to_string ack_plan <> Fault_plan.to_string (Fault_plan.make ()));
  check Alcotest.bool "storm brings a crash schedule" true
    (Chaos.crash_plan_for ~seed:3 <> Crash_plan.none);
  let r = Chaos.run_campaign ~messages ~seeds ~classes:[ Chaos.Storm ] Blockack.Protocols.multi in
  if not (Chaos.clean r) then
    Alcotest.failf "blockack-multi failed the storm campaign:@.%a"
      (fun ppf -> Chaos.pp_report ppf)
      r;
  let c = List.hd r.Chaos.classes in
  check Alcotest.bool "storm campaign ran" true (c.Chaos.supported && c.Chaos.runs > 0);
  match c.Chaos.recovery with
  | None -> Alcotest.fail "storm must report recovery cost"
  | Some rc -> check Alcotest.bool "restarts happened inside the storm" true (rc.Chaos.restarts > 0)

let test_storm_skipped_without_crash_tolerance () =
  let r =
    Chaos.run_campaign ~messages ~seeds:[ 1; 2 ] ~classes:[ Chaos.Storm ]
      Ba_baselines.Selective_repeat.protocol
  in
  let c = List.hd r.Chaos.classes in
  check Alcotest.bool "storm skipped for non-crash-tolerant protocols" true
    ((not c.Chaos.supported) && c.Chaos.runs = 0)

(* Random plans at the grammar's printed precision (%.3f for the burst
   transitions, %.2f elsewhere) round-trip too — the grammar is not
   secretly specialized to the handful of schedules the campaign uses. *)
let test_random_plans_roundtrip =
  qcheck
    (QCheck.Test.make ~count:200 ~name:"seeded random fault plans survive the replay grammar"
       QCheck.(int_range 0 1_000_000)
       (fun seed ->
         let rng = Random.State.make [| seed |] in
         let milli () = float_of_int (1 + Random.State.int rng 999) /. 1000. in
         let centi () = float_of_int (Random.State.int rng 100) /. 100. in
         let bursty =
           if Random.State.bool rng then
             Some
               {
                 Fault_plan.p_enter_bad = milli ();
                 p_exit_bad = milli ();
                 loss_good = centi ();
                 loss_bad = centi ();
               }
           else None
         in
         let duplicate = if Random.State.bool rng then centi () else 0. in
         let copies = 2 + Random.State.int rng 3 in
         let corrupt = if Random.State.bool rng then centi () else 0. in
         let delay_spike =
           if Random.State.bool rng then
             Some (float_of_int (1 + Random.State.int rng 99) /. 100.,
                   1 + Random.State.int rng 500)
           else None
         in
         let outages =
           if Random.State.bool rng then
             let from_tick = Random.State.int rng 5_000 in
             [ { Fault_plan.from_tick; until_tick = from_tick + 1 + Random.State.int rng 2_000 } ]
           else []
         in
         let plan =
           Fault_plan.make ?bursty ~duplicate ~copies ~corrupt ?delay_spike ~outages ()
         in
         let key = Fault_plan.to_string plan in
         match Fault_plan.of_string key with
         | Ok q -> Fault_plan.to_string q = key
         | Error _ -> false))

let test_blockack_survives_all_classes () =
  let r = Chaos.run_campaign ~messages ~seeds Blockack.Protocols.multi in
  if not (Chaos.clean r) then
    Alcotest.failf "blockack-multi failed the campaign:@.%a" (fun ppf -> Chaos.pp_report ppf) r

let test_selective_repeat_survives_all_classes () =
  let r = Chaos.run_campaign ~messages ~seeds Ba_baselines.Selective_repeat.protocol in
  if not (Chaos.clean r) then
    Alcotest.failf "selective-repeat failed the campaign:@.%a" (fun ppf -> Chaos.pp_report ppf) r

let test_gbn_breaks_under_reorder () =
  let r =
    Chaos.run_campaign ~messages ~config:Chaos.gbn_config ~seeds ~classes:[ Chaos.Reorder ]
      Ba_baselines.Go_back_n.protocol
  in
  check Alcotest.bool "bounded go-back-N must misbehave under reorder" false (Chaos.clean r)

let test_gbn_corruption_delivered () =
  (* No checksum validation in the textbook receiver: mangled payloads
     reach the application. *)
  let r =
    Chaos.run_campaign ~messages ~config:Chaos.gbn_config ~seeds:[ 1; 2; 3 ]
      ~classes:[ Chaos.Corruption ] Ba_baselines.Go_back_n.protocol
  in
  let unsafe = List.fold_left (fun acc c -> acc + c.Chaos.unsafe) 0 r.Chaos.classes in
  check Alcotest.bool "naive baseline delivers corruption" true (unsafe > 0)

let test_failure_replays () =
  (* The reported (seed, fault) pair plus plans must reproduce the same
     failing run — that is the whole point of the replay key. *)
  let r =
    Chaos.run_campaign ~messages ~config:Chaos.gbn_config ~seeds ~classes:[ Chaos.Reorder ]
      Ba_baselines.Go_back_n.protocol
  in
  match List.concat_map (fun c -> Option.to_list c.Chaos.first_failure) r.Chaos.classes with
  | [] -> Alcotest.fail "expected a failure to replay"
  | f :: _ -> (
      match
        Chaos.run_one ~messages ~config:Chaos.gbn_config Ba_baselines.Go_back_n.protocol f.Chaos.incident.Chaos.fault
          ~seed:f.Chaos.incident.Chaos.seed
      with
      | None -> Alcotest.fail "replay did not reproduce the failure"
      | Some g ->
          check Alcotest.int "same delivered count"
            f.Chaos.result.Ba_proto.Harness.delivered g.Chaos.result.Ba_proto.Harness.delivered;
          check Alcotest.int "same tick count" f.Chaos.result.Ba_proto.Harness.ticks
            g.Chaos.result.Ba_proto.Harness.ticks)

let test_both_count_semantics () =
  (* [unsafe] and [incomplete] count symptoms, not runs: a run showing
     both increments both counters AND the [both] column, so the
     distinct failing-run count is unsafe + incomplete - both. Pin that
     against an independent recount from run_one. *)
  let r =
    Chaos.run_campaign ~messages ~config:Chaos.gbn_config ~seeds ~classes:[ Chaos.Reorder ]
      Ba_baselines.Go_back_n.protocol
  in
  let c = List.hd r.Chaos.classes in
  let expect_unsafe = ref 0 and expect_incomplete = ref 0 and expect_both = ref 0 in
  List.iter
    (fun seed ->
      match
        Chaos.run_one ~messages ~config:Chaos.gbn_config Ba_baselines.Go_back_n.protocol
          Chaos.Reorder ~seed
      with
      | None -> ()
      | Some f ->
          let u = not (Chaos.safe f.Chaos.result) in
          let i = not f.Chaos.result.Ba_proto.Harness.completed in
          if u then incr expect_unsafe;
          if i then incr expect_incomplete;
          if u && i then incr expect_both)
    seeds;
  check Alcotest.int "unsafe matches recount" !expect_unsafe c.Chaos.unsafe;
  check Alcotest.int "incomplete matches recount" !expect_incomplete c.Chaos.incomplete;
  check Alcotest.int "both matches recount" !expect_both c.Chaos.both;
  check Alcotest.bool "both <= unsafe" true (c.Chaos.both <= c.Chaos.unsafe);
  check Alcotest.bool "both <= incomplete" true (c.Chaos.both <= c.Chaos.incomplete);
  check Alcotest.bool "distinct failures fit in runs" true
    (c.Chaos.unsafe + c.Chaos.incomplete - c.Chaos.both <= c.Chaos.runs);
  (* The campaign's headline claim depends on the distinct count being
     meaningful: go-back-N must actually fail under reorder here. *)
  check Alcotest.bool "some failure observed" true
    (c.Chaos.unsafe + c.Chaos.incomplete - c.Chaos.both > 0)

let test_outage_exercises_backoff () =
  (* During the dark window the adaptive sender must slow down: the run
     completes, and with scheduled outage drops actually recorded. *)
  let failure = Chaos.run_one ~messages Blockack.Protocols.multi Chaos.Outage ~seed:7 in
  check Alcotest.bool "outage run completes" true (failure = None);
  let data_plan, ack_plan = Chaos.plans_for Chaos.Outage ~seed:7 in
  let r =
    Ba_proto.Harness.run Blockack.Protocols.multi ~seed:7 ~messages ~config:Chaos.robust_config
      ~data_delay:(Ba_channel.Dist.Constant 50) ~ack_delay:(Ba_channel.Dist.Constant 50)
      ~data_plan ~ack_plan ()
  in
  check Alcotest.bool "outage actually dropped data" true (r.Ba_proto.Harness.data_outage_drops > 0);
  check Alcotest.bool "finished past the dark window" true
    (r.Ba_proto.Harness.ticks > Ba_channel.Fault_plan.quiesced_after data_plan)

(* ------------------------------------------------------------------ *)
(* Hostile peers. The frame checksum is FNV, not a MAC, so a peer can
   send a checksum-valid frame carrying any sequence number, range,
   epoch or kind. Whatever it sends, no endpoint may raise. *)

module Wire = Ba_proto.Wire
module Engine = Ba_sim.Engine
module Registry = Ba_registry.Registry

type forged = Data of Wire.data | Ack of Wire.ack

let pp_forged ppf = function
  | Data d -> Wire.pp_data ppf d
  | Ack a -> Wire.pp_ack ppf a

(* Window 8 and, when [modulus] says so, the registry's default modulus
   for it (16 for most block-ack variants); [None] sends unbounded
   numbers. *)
let hostile_config entry ~modulus =
  let config = Registry.config ~window:8 entry () in
  if modulus then config else { config with Ba_proto.Proto_config.wire_modulus = None }

(* [entry]'s endpoints wired back to back through the engine, 10 ticks
   each way, with a 40-message transfer of [Workload] seed 0, size 8
   pumped; returns the engine, a function handing a forged frame to the
   endpoint it is addressed to, and the sender's completion test. *)
let endpoints ?(deliver = ignore) entry ~modulus =
  let (module P : Ba_proto.Protocol.S) = entry.Registry.protocol in
  let config = hostile_config entry ~modulus in
  let engine = Engine.create () in
  let sender = ref None in
  let r =
    P.create_receiver engine config
      ~tx:(fun a ->
        Engine.schedule engine ~delay:10 (fun () -> Option.iter (fun s -> P.sender_on_ack s a) !sender))
      ~deliver
  in
  let s =
    P.create_sender engine config
      ~tx:(fun d -> Engine.schedule engine ~delay:10 (fun () -> P.receiver_on_data r d))
      ~next_payload:(Ba_proto.Workload.supplier ~seed:0 ~size:8 ~count:40)
  in
  sender := Some s;
  P.sender_pump s;
  ( engine,
    (function Data d -> P.receiver_on_data r d | Ack a -> P.sender_on_ack s a),
    fun () -> P.sender_done s )

let entry name = Option.get (Registry.find name)

(* Regression cases: a wire number past the modulus reached
   [Modseq.reconstruct]'s range assertion from these endpoints. *)
let test_blockack_drops_out_of_modulus () =
  let engine = Engine.create () in
  let config = hostile_config (entry "blockack-multi") ~modulus:true in
  let acks = ref 0 and delivered = ref 0 in
  let r =
    Blockack.Receiver.create engine config ~tx:(fun _ -> incr acks) ~deliver:(fun _ -> incr delivered)
  in
  Blockack.Receiver.on_data r (Wire.make_data ~seq:16 ~payload:"forged");
  check Alcotest.int "receiver counts it corrupt" 1 (Blockack.Receiver.corrupt_dropped r);
  check Alcotest.int "nothing acknowledged" 0 !acks;
  check Alcotest.int "nothing delivered" 0 !delivered;
  let s =
    Blockack.Sender_multi.create engine config ~tx:ignore
      ~next_payload:(Ba_proto.Workload.supplier ~seed:0 ~size:8 ~count:4)
  in
  Blockack.Sender_multi.pump s;
  Blockack.Sender_multi.on_ack s (Wire.make_ack ~lo:16 ~hi:17);
  check Alcotest.int "sender counts it corrupt" 1 (Blockack.Sender_multi.corrupt_acks_dropped s);
  check Alcotest.int "window not moved" 0 (Blockack.Sender_multi.na s)

let test_selective_repeat_drops_out_of_modulus () =
  let acks = ref 0 and delivered = ref 0 in
  let r =
    Ba_baselines.Selective_repeat.create_receiver (Engine.create ())
      (hostile_config (entry "selective-repeat") ~modulus:true)
      ~tx:(fun _ -> incr acks) ~deliver:(fun _ -> incr delivered)
  in
  Ba_baselines.Selective_repeat.receiver_on_data r (Wire.make_data ~seq:16 ~payload:"forged");
  check Alcotest.int "nothing acknowledged" 0 !acks;
  check Alcotest.int "nothing delivered" 0 !delivered

let test_stenning_drops_out_of_modulus () =
  let stenning = entry "stenning" in
  let (module P : Ba_proto.Protocol.S) = stenning.Registry.protocol in
  let s =
    P.create_sender (Engine.create ()) (hostile_config stenning ~modulus:true) ~tx:ignore
      ~next_payload:(Ba_proto.Workload.supplier ~seed:0 ~size:8 ~count:4)
  in
  P.sender_pump s;
  P.sender_on_ack s (Wire.make_ack ~lo:16 ~hi:17);
  check Alcotest.int "sender ignores it" 4 (P.sender_outstanding s);
  P.sender_on_ack s (Wire.make_ack ~lo:0 ~hi:0);
  check Alcotest.int "a real ack still counts" 3 (P.sender_outstanding s)

(* Stenning's sender once acted on an ack whose checksum did not match:
   one flipped bit in a copy of the ack for message 0 slid its window. *)
let test_stenning_drops_corrupt_ack () =
  let stenning = entry "stenning" in
  let (module P : Ba_proto.Protocol.S) = stenning.Registry.protocol in
  let s =
    P.create_sender (Engine.create ()) (hostile_config stenning ~modulus:true) ~tx:ignore
      ~next_payload:(Ba_proto.Workload.supplier ~seed:0 ~size:8 ~count:4)
  in
  P.sender_pump s;
  check Alcotest.int "four outstanding" 4 (P.sender_outstanding s);
  let a = Wire.make_ack ~lo:0 ~hi:0 in
  let damaged = { a with Wire.check = a.Wire.check lxor 1 } in
  check Alcotest.bool "checksum fails" false (Wire.ack_ok damaged);
  P.sender_on_ack s damaged;
  check Alcotest.int "sender ignores it" 4 (P.sender_outstanding s)

(* The FNV checksum authenticates nothing, so a peer can forge a
   well-formed data frame for a number inside the receiver's window.
   Block ack keeps the first copy of each number, so the forged payload
   is delivered in place of the real one: one wrong delivery, and the
   transfer still completes. This is the recorded counterexample to
   delivery safety against hostile in-window data, not a fix. *)
let test_blockack_forged_in_window_data () =
  let delivered = ref [] in
  let engine, feed, sender_done =
    endpoints (entry "blockack-multi") ~modulus:true ~deliver:(fun p ->
        delivered := p :: !delivered)
  in
  Engine.run ~until:50 engine;
  feed (Data (Wire.make_data_e ~epoch:0 ~seq:12 ~payload:"x"));
  Engine.run ~until:3000 engine;
  let delivered = List.rev !delivered in
  let wrong =
    List.filteri
      (fun k p -> not (String.equal p (Ba_proto.Workload.payload ~seed:0 ~size:8 k)))
      delivered
  in
  check Alcotest.int "every position delivered once" 40 (List.length delivered);
  check Alcotest.(list string) "one corrupted delivery: the forged payload" [ "x" ] wrong;
  (* by tick 50 the receiver has delivered 0..23, so wire number 12
     (mod 16) decodes to message 28 *)
  check Alcotest.string "in place of message 28" "x" (List.nth delivered 28);
  check Alcotest.bool "transfer completes" true (sender_done ())

(* A cumulative ack of [max_int] once wrapped go-back-N's [na] negative,
   after which its pump never stopped. *)
let test_gbn_survives_max_int_ack () =
  let gbn = entry "go-back-n" in
  let (module P : Ba_proto.Protocol.S) = gbn.Registry.protocol in
  let s =
    P.create_sender (Engine.create ()) (hostile_config gbn ~modulus:true) ~tx:ignore
      ~next_payload:(Ba_proto.Workload.supplier ~seed:0 ~size:8 ~count:40)
  in
  P.sender_pump s;
  P.sender_on_ack s (Wire.make_ack ~lo:max_int ~hi:max_int);
  check Alcotest.int "the window slides to its end and refills" 8 (P.sender_outstanding s)

(* Numbers near the window, and anywhere up to [max_int]. *)
let gen_forged =
  let open QCheck.Gen in
  let num = oneof [ int_bound 40; map (fun x -> x land max_int) int; return max_int ] in
  oneof
    [
      map3
        (fun seq epoch kind ->
          Data
            (match kind with
            | 0 -> Wire.make_data_e ~epoch ~seq ~payload:"forged"
            | 1 -> Wire.make_sync_req ~epoch
            | _ -> Wire.make_sync_fin ~epoch))
        num num (int_bound 2);
      map4
        (fun lo hi epoch pos ->
          Ack (if pos then Wire.make_sync_pos ~epoch ~pos:lo else Wire.make_ack_e ~epoch ~lo ~hi))
        num num num bool;
    ]

(* Every registry protocol, with and without its default modulus: feed
   the forged frames after [warmup] ticks of a transfer (0 = fresh
   endpoints), then let every transfer run on. *)
let prop_hostile_frames_never_raise =
  qcheck
    (QCheck.Test.make ~count:100 ~name:"forged checksum-valid frames never raise"
       (QCheck.make
          ~print:(fun (warmup, frames) ->
            Format.asprintf "warmup %d: %a" warmup
              (Format.pp_print_list ~pp_sep:Format.pp_print_space pp_forged)
              frames)
          QCheck.Gen.(pair (oneof [ return 0; int_range 1 300 ]) (list_size (int_range 1 12) gen_forged)))
       (fun (warmup, frames) ->
         let pairs =
           List.concat_map
             (fun entry -> List.map (fun modulus -> endpoints entry ~modulus) [ false; true ])
             Registry.all
         in
         List.iter
           (fun (engine, feed, _) ->
             Engine.run ~until:warmup engine;
             List.iter feed frames)
           pairs;
         List.iter (fun (engine, _, _) -> Engine.run ~until:(warmup + 3000) engine) pairs;
         true))

let () =
  Alcotest.run "chaos"
    [
      ( "campaign",
        [
          Alcotest.test_case "class names roundtrip" `Quick test_class_names_roundtrip;
          Alcotest.test_case "plans deterministic" `Quick test_plans_deterministic;
          Alcotest.test_case "campaign plans round-trip the replay grammar" `Quick
            test_campaign_plans_roundtrip;
          Alcotest.test_case "incident ingredients follow the class" `Quick
            test_incident_ingredients;
          Alcotest.test_case "storm composes all three plan kinds" `Quick
            test_storm_composes_and_blockack_survives;
          Alcotest.test_case "storm skipped without crash tolerance" `Quick
            test_storm_skipped_without_crash_tolerance;
          test_random_plans_roundtrip;
          Alcotest.test_case "blockack survives all classes" `Quick
            test_blockack_survives_all_classes;
          Alcotest.test_case "selective repeat survives all classes" `Quick
            test_selective_repeat_survives_all_classes;
          Alcotest.test_case "go-back-N breaks under reorder" `Quick test_gbn_breaks_under_reorder;
          Alcotest.test_case "go-back-N delivers corruption" `Quick test_gbn_corruption_delivered;
          Alcotest.test_case "failures replay exactly" `Quick test_failure_replays;
          Alcotest.test_case "both-count semantics" `Quick test_both_count_semantics;
          Alcotest.test_case "outage exercises backoff" `Quick test_outage_exercises_backoff;
        ] );
      ( "hostile",
        [
          Alcotest.test_case "blockack drops an out-of-modulus number" `Quick
            test_blockack_drops_out_of_modulus;
          Alcotest.test_case "selective repeat drops an out-of-modulus number" `Quick
            test_selective_repeat_drops_out_of_modulus;
          Alcotest.test_case "stenning drops an out-of-modulus number" `Quick
            test_stenning_drops_out_of_modulus;
          Alcotest.test_case "go-back-N survives a max_int ack" `Quick test_gbn_survives_max_int_ack;
          Alcotest.test_case "stenning drops a corrupt ack" `Quick test_stenning_drops_corrupt_ack;
          Alcotest.test_case "blockack delivers a forged in-window frame" `Quick
            test_blockack_forged_in_window_data;
          prop_hostile_frames_never_raise;
        ] );
    ]
