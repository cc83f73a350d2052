(* Overload-tolerance tests: bounded receiver/sender budgets, the
   watchdog state machine, fabric admission control under a memory
   budget, the overload chaos class, and the S2 surge acceptance
   scenario (budget held, quarantined flow recovers, bystander goodput
   barely degrades). *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Chaos = Ba_verify.Chaos
module Harness = Ba_proto.Harness
module Fabric = Ba_proto.Fabric
module Cell = Ba_proto.Cell
module Crash_plan = Ba_proto.Crash_plan
module Watchdog = Ba_proto.Watchdog
module Registry = Ba_registry.Registry
module Config = Ba_proto.Proto_config

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry is missing %S" name

let blockack = (entry "blockack-multi").Registry.protocol

(* ------------------------------------------------------------------ *)
(* Watchdog state machine *)

let wd_config =
  { Watchdog.check_interval = 100; stall_checks = 2; degraded_checks = 2; max_resyncs = 2;
    probation_checks = 4 }

let action = Alcotest.testable (Fmt.of_to_string (function
  | Watchdog.Nothing -> "nothing"
  | Watchdog.Resync -> "resync"
  | Watchdog.Quarantine -> "quarantine"
  | Watchdog.Release -> "release")) ( = )

let observe t ~delivered = Watchdog.observe t ~delivered ~completed:false

let test_watchdog_escalation () =
  let t = Watchdog.create wd_config in
  (* Silence escalates with hysteresis: two checks to leave Healthy, two
     more to act, each resync buying a fresh two-check grace period. *)
  check action "idle 1" Watchdog.Nothing (observe t ~delivered:0);
  check Alcotest.string "still healthy" "healthy" (Watchdog.state_name (Watchdog.state t));
  check action "idle 2 degrades" Watchdog.Nothing (observe t ~delivered:0);
  check Alcotest.string "degraded" "degraded" (Watchdog.state_name (Watchdog.state t));
  check action "idle 3" Watchdog.Nothing (observe t ~delivered:0);
  check action "idle 4 resyncs" Watchdog.Resync (observe t ~delivered:0);
  check Alcotest.string "stalled" "stalled" (Watchdog.state_name (Watchdog.state t));
  check action "grace check" Watchdog.Nothing (observe t ~delivered:0);
  check action "second resync" Watchdog.Resync (observe t ~delivered:0);
  check action "grace check" Watchdog.Nothing (observe t ~delivered:0);
  check action "resyncs exhausted: quarantine" Watchdog.Quarantine (observe t ~delivered:0);
  check Alcotest.string "quarantined" "quarantined" (Watchdog.state_name (Watchdog.state t));
  check Alcotest.int "one quarantine event" 1 (Watchdog.quarantine_events t);
  check Alcotest.int "two resync events" 2 (Watchdog.resync_events t)

let test_watchdog_progress_resets () =
  let t = Watchdog.create wd_config in
  ignore (observe t ~delivered:0);
  ignore (observe t ~delivered:0);
  check Alcotest.string "degraded" "degraded" (Watchdog.state_name (Watchdog.state t));
  check action "progress heals" Watchdog.Nothing (observe t ~delivered:5);
  check Alcotest.string "healthy again" "healthy" (Watchdog.state_name (Watchdog.state t));
  (* The idle counter restarted: it takes the full escalation again. *)
  check action "idle 1" Watchdog.Nothing (observe t ~delivered:5);
  check action "idle 2" Watchdog.Nothing (observe t ~delivered:5);
  check action "idle 3" Watchdog.Nothing (observe t ~delivered:5);
  check action "idle 4 resyncs" Watchdog.Resync (observe t ~delivered:5)

let test_watchdog_probation_and_release () =
  let t = Watchdog.create wd_config in
  for _ = 1 to 8 do ignore (observe t ~delivered:0) done;
  check Alcotest.string "quarantined" "quarantined" (Watchdog.state_name (Watchdog.state t));
  (* Progress cannot lift quarantine — only probation can (that is the
     isolation guarantee for the other n-1 flows). *)
  check action "probation 1" Watchdog.Nothing (observe t ~delivered:50);
  check Alcotest.string "still quarantined" "quarantined"
    (Watchdog.state_name (Watchdog.state t));
  check action "probation 2" Watchdog.Nothing (observe t ~delivered:50);
  check action "probation 3" Watchdog.Nothing (observe t ~delivered:50);
  check action "probation over: release" Watchdog.Release (observe t ~delivered:50);
  check Alcotest.string "released on parole" "degraded"
    (Watchdog.state_name (Watchdog.state t));
  (* Parole: one escalation (not a full quarantine cycle) away from a
     resync, with the resync allowance reset. *)
  check action "parole check" Watchdog.Nothing (observe t ~delivered:50);
  check action "re-stall resyncs again" Watchdog.Resync (observe t ~delivered:50)

(* [check] pulls the lever each verdict names: a release reopens the
   gate before it resyncs. *)
let test_watchdog_levers () =
  let t = Watchdog.create wd_config in
  let pulled = ref [] in
  let pull lever = pulled := lever :: !pulled in
  for _ = 1 to 12 do
    Watchdog.check t ~delivered:0 ~completed:false
      ~resync:(fun () -> pull "resync")
      ~gate:(fun closed -> pull (if closed then "close" else "open"))
  done;
  check Alcotest.(list string) "two resyncs, quarantine, release"
    [ "resync"; "resync"; "close"; "open"; "resync" ]
    (List.rev !pulled)

let test_watchdog_completed_is_healthy_forever () =
  let t = Watchdog.create wd_config in
  for _ = 1 to 8 do ignore (observe t ~delivered:0) done;
  check action "completion overrides quarantine" Watchdog.Nothing
    (Watchdog.observe t ~delivered:60 ~completed:true);
  check Alcotest.string "healthy" "healthy" (Watchdog.state_name (Watchdog.state t))

let test_watchdog_config_validated () =
  Alcotest.check_raises "bad interval"
    (Invalid_argument "Watchdog: check_interval must be positive") (fun () ->
      ignore (Watchdog.create { wd_config with Watchdog.check_interval = 0 }));
  Alcotest.check_raises "bad probation"
    (Invalid_argument "Watchdog: probation_checks must be >= 1") (fun () ->
      ignore (Watchdog.create { wd_config with Watchdog.probation_checks = 0 }))

(* ------------------------------------------------------------------ *)
(* Fabric admission control *)

(* Four flows, window 8, 32-byte payloads: 2*8*32 = 512 bytes of
   worst-case buffering each, 2048 total. *)
let admission_specs () =
  let config = Registry.config ~window:8 ~rto:600 (entry "blockack-multi") () in
  List.init 4 (fun _ -> Fabric.spec ~config ~messages:20 ~payload_size:32 blockack)

let test_admission_unclamped_when_budget_allows () =
  let r = Fabric.run ~memory_budget:2048 (admission_specs ()) in
  check Alcotest.int "all admitted" 4 (List.length r.Fabric.flows);
  check Alcotest.int "none refused" 0 (Ba_util.Counters.get r.Fabric.counters Refused);
  check (Alcotest.option Alcotest.int) "no clamp" None r.Fabric.clamped_window;
  check Alcotest.bool "completed" true r.Fabric.completed

let test_admission_uniform_clamp () =
  (* 1024 bytes over 4 flows: 2*c*32*4 <= 1024 gives c = 4. *)
  let r = Fabric.run ~memory_budget:1024 (admission_specs ()) in
  check Alcotest.int "all admitted" 4 (List.length r.Fabric.flows);
  check (Alcotest.option Alcotest.int) "uniform clamp" (Some 4) r.Fabric.clamped_window;
  check Alcotest.bool "completed under clamp" true r.Fabric.completed;
  check Alcotest.bool "correct under clamp" true
    (List.for_all Harness.correct r.Fabric.flows);
  check Alcotest.bool
    (Printf.sprintf "peak %d within budget" r.Fabric.mem_peak_bytes)
    true
    (r.Fabric.mem_peak_bytes <= 1024)

let test_admission_prefix_at_clamp_one () =
  (* 160 bytes: even clamp 1 costs 64 per flow, so only a 2-flow prefix
     fits; the rest are refused rather than everyone OOMing. *)
  let r = Fabric.run ~memory_budget:160 (admission_specs ()) in
  check Alcotest.int "prefix admitted" 2 (List.length r.Fabric.flows);
  check Alcotest.int "rest refused" 2 (Ba_util.Counters.get r.Fabric.counters Refused);
  check (Alcotest.option Alcotest.int) "clamp 1" (Some 1) r.Fabric.clamped_window;
  check Alcotest.int "result rows only for admitted flows" 2 (List.length r.Fabric.flows);
  check Alcotest.bool "admitted flows complete" true r.Fabric.completed

let test_admission_rejects_hopeless_budget () =
  Alcotest.check_raises "nothing fits"
    (Invalid_argument "Fabric.run: memory_budget admits no flow") (fun () ->
      ignore (Fabric.run ~memory_budget:63 (admission_specs ())))

(* ------------------------------------------------------------------ *)
(* Bounded buffers end to end *)

(* The property's transfer, given its two drawn parameters; shared with
   the [@liveness] sweep of the property's whole case space. *)
let pressure_run = Recorded.pressure_run

(* Whatever the budget, policy, loss and queue contention do to the
   frame stream, delivery stays in-order, duplicate-free and complete:
   budget drops are repaired by the same timer machinery as channel
   losses, and no block ack ever covers a refused slot (a covered slot
   would never be retransmitted and the transfer could not finish). *)
let test_pressure_safety_property =
  qcheck
    (QCheck.Test.make ~count:40 ~name:"bounded reassembly never corrupts or stalls delivery"
       QCheck.(pair (int_range 0 10_000) bool)
       (fun (seed, drop_new) ->
         let policy = if drop_new then Config.Drop_new else Config.Drop_furthest in
         let r = pressure_run ~seed policy in
         Harness.correct r
         || QCheck.Test.fail_reportf
              "@[<v>seed %d, %s: %a@,\
               fixed: window 8, wire modulus 16, rto 600, max_transit 200, adaptive rto,@,\
               rx_budget 2; 50 messages, 5%% loss each way, delay Uniform (20, 60),@,\
               data bottleneck (5, 3)@]"
              seed (Config.drop_policy_name policy) Harness.pp_result r))

(* A recorded liveness defect, not a fix: the one case of the property's
   space that fails (seed 4095, [Drop_furthest]). Every ack the sender
   gets covers a retransmission, so Karn's rule takes no RTT sample and
   every timer backs off to the ceiling; the window's timers then expire
   in one burst, in the same order every round, and the oldest
   unacknowledged message sits near the burst's tail, where the 3-frame
   bottleneck queue tail-drops it. Safety holds, but the run reaches the
   deadline 8 messages short. A fix that orders the burst from the
   oldest message changes this outcome, and this test with it. *)
let test_pressure_starvation_recorded () =
  let r = pressure_run ~seed:4095 Config.Drop_furthest in
  check Alcotest.bool "stuck: the transfer does not complete" false r.Harness.completed;
  check Alcotest.int "at the 1.6M-tick deadline" 1_600_000 r.Harness.ticks;
  check Alcotest.int "42 of 50 delivered" 42 r.Harness.delivered;
  check Alcotest.int "no duplicate" 0 r.Harness.duplicates;
  check Alcotest.int "no misordering" 0 r.Harness.misordered;
  check Alcotest.int "no corruption" 0 r.Harness.corrupted

(* ------------------------------------------------------------------ *)
(* The overload chaos class *)

(* The squeeze has to bite: across a seed sweep the bounded receiver must
   actually refuse frames — otherwise the class tests nothing. *)
let test_overload_class_bites () =
  let drops = ref 0 in
  List.iter
    (fun seed ->
      (match Chaos.run_one ~messages:60 blockack Chaos.Overload ~seed with
      | Some f ->
          Alcotest.failf "overload seed=%d failed: %s" seed
            (Format.asprintf "%a" Harness.pp_result f.Chaos.result)
      | None -> ());
      (* run_one hides the result on success, so re-run the cell through
         the harness with the same derived squeeze to count refusals. *)
      let config, bottleneck =
        Chaos.apply_squeeze (Chaos.squeeze_for ~seed) Chaos.robust_config
      in
      let delay = Ba_channel.Dist.Constant 50 in
      let r =
        Harness.run blockack ~seed ~messages:60 ~config ~data_delay:delay ~ack_delay:delay
          ~data_bottleneck:bottleneck ()
      in
      drops := !drops + r.Harness.pressure_drops)
    (List.init 10 (fun i -> i + 1));
  if !drops = 0 then Alcotest.fail "overload sweep never triggered a pressure drop"

let test_overload_replayable () =
  check Alcotest.bool "registered" true (Chaos.class_of_name "overload" = Some Chaos.Overload);
  check Alcotest.string "name round-trips" "overload" (Chaos.class_name Chaos.Overload);
  check Alcotest.bool "in the campaign's default class list" true
    (List.mem Chaos.Overload Chaos.all_classes)

(* ------------------------------------------------------------------ *)
(* S2: surge, quarantine, recovery *)

let s2_base_flows = 4
let s2_surge_at = 2_000
let s2_stall_for = 5_000
let s2_messages = 40

let s2_specs () =
  let config = Registry.config ~window:8 ~rto:600 (entry "blockack-multi") () in
  List.init s2_base_flows (fun _ -> Fabric.spec ~config ~messages:s2_messages blockack)
  @ List.init s2_base_flows (fun _ ->
        Fabric.spec ~config ~messages:s2_messages ~start_at:s2_surge_at blockack)

let s2_budget =
  (* Exactly the worst-case need of base + surge: the surge is covered by
     admission up front, so the budget holds through its peak. *)
  2 * s2_base_flows * 2 * 8 * 32

let s2_watchdog = { Watchdog.default_config with Watchdog.check_interval = 500 }

let s2_stall_victim _ cell =
  Cell.schedule_crashes cell s2_base_flows
    [ { Crash_plan.at = s2_surge_at + 100; endpoint = Receiver_end; down_for = s2_stall_for } ]

let test_s2_surge_acceptance () =
  let surged =
    Fabric.run ~seed:7 ~data_loss:0.01 ~ack_loss:0.01 ~memory_budget:s2_budget
      ~watchdog:s2_watchdog ~on_flows:s2_stall_victim (s2_specs ())
  in
  (* 1. Memory stays under budget through the surge peak. *)
  check Alcotest.bool
    (Printf.sprintf "peak %dB within budget %dB" surged.Fabric.mem_peak_bytes s2_budget)
    true
    (surged.Fabric.mem_peak_bytes <= s2_budget);
  (* 2. The stalled flow was quarantined, recovered via the resync
     handshake, and finished; nobody is still gated at the end. *)
  let n = Ba_util.Counters.get surged.Fabric.counters in
  check Alcotest.bool "quarantine happened" true (n Quarantine_events >= 1);
  check Alcotest.bool "watchdog resyncs happened" true (n Watchdog_resyncs >= 1);
  check Alcotest.int "nothing still quarantined" 0 (n Quarantined);
  let victim = List.nth surged.Fabric.flows s2_base_flows in
  check Alcotest.bool "victim restarted through the handshake" true
    (victim.Harness.restarts >= 1);
  check Alcotest.bool "victim completed" true victim.Harness.completed;
  check Alcotest.bool "every flow correct" true
    (List.for_all Harness.correct surged.Fabric.flows);
  (* 3. The n-1 healthy base flows barely notice: goodput within 10% of
     the same flows in a surge-free, fault-free baseline run. *)
  let baseline =
    Fabric.run ~seed:7 ~data_loss:0.01 ~ack_loss:0.01
      (List.filteri (fun i _ -> i < s2_base_flows) (s2_specs ()))
  in
  List.iteri
    (fun i (b : Harness.result) ->
      let s = List.nth surged.Fabric.flows i in
      check Alcotest.bool
        (Printf.sprintf "flow %d goodput %.1f vs baseline %.1f within 10%%" i
           s.Harness.goodput b.Harness.goodput)
        true
        (s.Harness.goodput >= 0.9 *. b.Harness.goodput))
    baseline.Fabric.flows

(* Soak rounds are pure functions of their seed: the same scenario run
   twice (and on any pool) is structurally identical. *)
let test_s2_deterministic () =
  let run () =
    Fabric.run ~seed:11 ~data_loss:0.02 ~ack_loss:0.02 ~memory_budget:s2_budget
      ~watchdog:s2_watchdog ~on_flows:s2_stall_victim (s2_specs ())
  in
  check Alcotest.bool "same seed, same surge run" true (run () = run ())

let () =
  Alcotest.run "overload"
    [
      ( "watchdog",
        [
          Alcotest.test_case "escalation with hysteresis" `Quick test_watchdog_escalation;
          Alcotest.test_case "progress resets" `Quick test_watchdog_progress_resets;
          Alcotest.test_case "probation and release" `Quick test_watchdog_probation_and_release;
          Alcotest.test_case "check pulls the levers" `Quick test_watchdog_levers;
          Alcotest.test_case "completed is healthy forever" `Quick
            test_watchdog_completed_is_healthy_forever;
          Alcotest.test_case "config validated" `Quick test_watchdog_config_validated;
        ] );
      ( "admission",
        [
          Alcotest.test_case "unclamped when budget allows" `Quick
            test_admission_unclamped_when_budget_allows;
          Alcotest.test_case "uniform clamp" `Quick test_admission_uniform_clamp;
          Alcotest.test_case "prefix at clamp one" `Quick test_admission_prefix_at_clamp_one;
          Alcotest.test_case "hopeless budget rejected" `Quick
            test_admission_rejects_hopeless_budget;
        ] );
      ( "bounded buffers",
        [
          test_pressure_safety_property;
          Alcotest.test_case "recorded defect: seed 4095 starves the oldest message" `Quick
            test_pressure_starvation_recorded;
        ] );
      ( "chaos class",
        [
          Alcotest.test_case "squeeze bites and stays safe" `Quick test_overload_class_bites;
          Alcotest.test_case "overload is a named, replayable class" `Quick
            test_overload_replayable;
        ] );
      ( "s2 surge",
        [
          Alcotest.test_case "budget, quarantine, recovery, bystanders" `Quick
            test_s2_surge_acceptance;
          Alcotest.test_case "surge run deterministic" `Quick test_s2_deterministic;
        ] );
    ]
