(* Crash–restart tolerance tests: the incarnation-epoch resync handshake
   recovers from sender, receiver and double crashes; the epoch-less
   ("naive") restart demonstrably violates at-most-once delivery; the
   chaos campaign's [crash] fault class stays clean across the seed grid
   and its replay keys reproduce failures exactly. *)

let check = Alcotest.check

module Harness = Ba_proto.Harness
module Crash_plan = Ba_proto.Crash_plan
module Config = Blockack.Config
module Dist = Ba_channel.Dist
module Chaos = Ba_verify.Chaos

let config = Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ()
let naive_config = Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~resync_epochs:false ()

let run ?(seed = 1) ?(messages = 300) ?(config = config) ?(loss = 0.) ~crash_plan proto =
  Harness.run proto ~seed ~messages ~config ~data_loss:loss ~ack_loss:loss
    ~data_delay:(Dist.Uniform (20, 80))
    ~ack_delay:(Dist.Uniform (20, 80))
    ~crash_plan ()

let assert_correct name (r : Harness.result) =
  if not (Harness.correct r) then
    Alcotest.failf "%s: incorrect run: completed=%b dup=%d ooo=%d bad=%d delivered=%d/%d" name
      r.completed r.duplicates r.misordered r.corrupted r.delivered r.messages

(* ------------------------------------------------------------------ *)
(* Harness-level crash plans *)

let sender_crash = Crash_plan.make [ { at = 500; endpoint = Sender_end; down_for = 400 } ]
let receiver_crash = Crash_plan.make [ { at = 500; endpoint = Receiver_end; down_for = 400 } ]

let both_crash =
  Crash_plan.make
    [
      { at = 400; endpoint = Receiver_end; down_for = 300 };
      { at = 1200; endpoint = Sender_end; down_for = 300 };
    ]

let test_sender_crash_recovers () =
  List.iter
    (fun seed ->
      let r = run ~seed ~crash_plan:sender_crash Blockack.Protocols.multi in
      assert_correct "sender crash" r;
      check Alcotest.int "crashes" 1 r.Harness.crashes;
      check Alcotest.int "restarts" 1 r.Harness.restarts;
      if r.Harness.resync_rounds < 2 then
        Alcotest.failf "expected a REQ/POS/FIN exchange, rounds=%d" r.Harness.resync_rounds;
      match r.Harness.resync_ticks with
      | None -> Alcotest.fail "expected a recovery-time sample"
      | Some s -> if s.Ba_util.Stats.mean <= 0. then Alcotest.fail "recovery time must be positive")
    [ 1; 2; 3; 4; 5 ]

let test_receiver_crash_recovers () =
  List.iter
    (fun seed ->
      let r = run ~seed ~crash_plan:receiver_crash Blockack.Protocols.multi in
      assert_correct "receiver crash" r;
      check Alcotest.int "restarts" 1 r.Harness.restarts;
      if r.Harness.resync_rounds < 1 then Alcotest.fail "receiver restart must announce via POS")
    [ 1; 2; 3; 4; 5 ]

let test_double_crash_recovers () =
  List.iter
    (fun seed ->
      let r = run ~seed ~messages:400 ~crash_plan:both_crash Blockack.Protocols.multi in
      assert_correct "double crash" r;
      check Alcotest.int "crashes" 2 r.Harness.crashes;
      check Alcotest.int "restarts" 2 r.Harness.restarts)
    [ 1; 2; 3 ]

let test_crash_under_loss () =
  (* The handshake itself rides the lossy links: REQ/POS/FIN frames can be
     dropped and must be retried on the resync timer. *)
  List.iter
    (fun seed ->
      let r = run ~seed ~loss:0.2 ~crash_plan:both_crash Blockack.Protocols.multi in
      assert_correct "double crash under loss" r)
    [ 1; 2; 3; 4; 5 ]

let test_simple_sender_crash_recovers () =
  let r = run ~crash_plan:sender_crash Blockack.Protocols.simple in
  assert_correct "blockack-simple sender crash" r

let test_crash_before_start_and_after_end () =
  (* Crash at tick 0 (before anything is in flight) and long after the
     transfer would normally complete: both must leave the run correct. *)
  let early = Crash_plan.make [ { at = 0; endpoint = Sender_end; down_for = 100 } ] in
  let r = run ~messages:100 ~crash_plan:early Blockack.Protocols.multi in
  assert_correct "crash at t=0" r

(* ------------------------------------------------------------------ *)
(* Negative control: epoch-less restart is unsafe *)

let test_naive_receiver_restart_unsafe () =
  (* With [resync_epochs = false] a restarted receiver comes back at
     nr = 0 and re-accepts the sender's retransmissions: duplicate
     delivery (or a stuck transfer when the modulus arithmetic wedges).
     Either way the run must NOT be correct — this is the counterexample
     the epochs exist to close. *)
  let unsafe =
    List.exists
      (fun seed ->
        let r =
          run ~seed ~config:naive_config ~crash_plan:receiver_crash Blockack.Protocols.multi
        in
        (not r.Harness.completed) || r.Harness.duplicates > 0 || r.Harness.misordered > 0)
      [ 1; 2; 3; 4; 5 ]
  in
  if not unsafe then Alcotest.fail "naive receiver restart unexpectedly survived every seed"

let test_epochs_close_the_hole () =
  (* Same seeds, same plan, epochs on: every run correct. *)
  List.iter
    (fun seed ->
      let r = run ~seed ~crash_plan:receiver_crash Blockack.Protocols.multi in
      assert_correct "epochs on" r)
    [ 1; 2; 3; 4; 5 ]

(* ------------------------------------------------------------------ *)
(* Results plumbing *)

let test_zero_crash_result_unchanged () =
  (* A crash-free run must report zeros and print the historical one-line
     format (no crash segment) — the cram pins depend on it. *)
  let r = run ~crash_plan:Crash_plan.none Blockack.Protocols.multi in
  assert_correct "no crash" r;
  check Alcotest.int "crashes" 0 r.Harness.crashes;
  check Alcotest.int "resync rounds" 0 r.Harness.resync_rounds;
  check Alcotest.bool "no recovery samples" true (r.Harness.resync_ticks = None);
  let line = Format.asprintf "%a" Harness.pp_result r in
  check Alcotest.bool "no crash segment" false
    (String.length line >= 7
    && List.exists
         (fun i -> String.sub line i 7 = "crashes")
         (List.init (String.length line - 6) Fun.id))

let test_crash_result_pp () =
  let r = run ~crash_plan:sender_crash Blockack.Protocols.multi in
  let line = Format.asprintf "%a" Harness.pp_result r in
  let has_segment =
    List.exists
      (fun i -> String.sub line i 7 = "crashes")
      (List.init (String.length line - 6) Fun.id)
  in
  check Alcotest.bool "crash segment present" true has_segment

let key plan = Format.asprintf "%a" Crash_plan.pp plan

let test_crash_plan_validation () =
  Alcotest.check_raises "negative tick" (Invalid_argument "Crash_plan: crash tick must be >= 0")
    (fun () -> ignore (Crash_plan.make [ { at = -1; endpoint = Sender_end; down_for = 10 } ]));
  check Alcotest.string "replay key" "crash(S@150+80)"
    (key (Crash_plan.make [ { at = 150; endpoint = Sender_end; down_for = 80 } ]));
  check Alcotest.string "empty plan" "none" (key Crash_plan.none)

let test_determinism () =
  let snapshot () =
    let r = run ~seed:7 ~loss:0.1 ~crash_plan:both_crash Blockack.Protocols.multi in
    Format.asprintf "%a" Harness.pp_result r
  in
  check Alcotest.string "same seed, same run" (snapshot ()) (snapshot ())

(* ------------------------------------------------------------------ *)
(* Chaos campaign: the crash fault class *)

let campaign_seeds = List.init 10 (fun i -> i + 1)

let test_campaign_crash_class_clean () =
  let r =
    Chaos.run_campaign ~messages:30 ~seeds:campaign_seeds ~classes:[ Chaos.Crash ]
      Blockack.Protocols.multi
  in
  if not (Chaos.clean r) then
    Alcotest.failf "crash class failed for blockack-multi:@.%a" (fun ppf -> Chaos.pp_report ppf) r;
  match r.Chaos.classes with
  | [ c ] -> (
      check Alcotest.bool "supported" true c.Chaos.supported;
      check Alcotest.int "every seed ran" (List.length campaign_seeds) c.Chaos.runs;
      match c.Chaos.recovery with
      | None -> Alcotest.fail "crash class must report recovery metrics"
      | Some rec_ ->
          check Alcotest.bool "restarts recorded" true (rec_.Chaos.restarts > 0);
          check Alcotest.bool "handshake frames recorded" true (rec_.Chaos.resync_rounds > 0);
          check Alcotest.bool "recovery time positive" true (rec_.Chaos.mean_resync_ticks > 0.);
          check Alcotest.bool "mean <= max" true
            (rec_.Chaos.mean_resync_ticks <= rec_.Chaos.max_resync_ticks))
  | _ -> Alcotest.fail "expected exactly one class report"

let test_campaign_naive_restart_fails () =
  let r =
    Chaos.run_campaign ~messages:30 ~config:Chaos.naive_restart_config ~seeds:campaign_seeds
      ~classes:[ Chaos.Crash ] Blockack.Protocols.multi
  in
  check Alcotest.bool "naive restart config must fail the crash class" false (Chaos.clean r);
  match (List.hd r.Chaos.classes).Chaos.first_failure with
  | None -> Alcotest.fail "expected a first failure with a replay key"
  | Some f ->
      check Alcotest.bool "failure carries its crash plan" true
        (f.Chaos.incident.Chaos.crash_plan <> Crash_plan.none)

let test_campaign_crash_skipped_when_unsupported () =
  (* Selective repeat has no crash-restart lifecycle: the class must show
     up as an explicit skipped row, not silently vanish or abort. *)
  let r =
    Chaos.run_campaign ~messages:30 ~seeds:campaign_seeds ~classes:[ Chaos.Crash ]
      Ba_baselines.Selective_repeat.protocol
  in
  match r.Chaos.classes with
  | [ c ] ->
      check Alcotest.bool "unsupported" false c.Chaos.supported;
      check Alcotest.int "no runs" 0 c.Chaos.runs;
      check Alcotest.bool "still counts as clean" true (Chaos.clean r)
  | _ -> Alcotest.fail "expected exactly one class report"

let test_campaign_crash_failure_replays () =
  (* The replay key (seed + derived plans) must reproduce the campaign's
     failing run exactly — same verdict, same counters. *)
  let r =
    Chaos.run_campaign ~messages:30 ~config:Chaos.naive_restart_config ~seeds:campaign_seeds
      ~classes:[ Chaos.Crash ] Blockack.Protocols.multi
  in
  match (List.hd r.Chaos.classes).Chaos.first_failure with
  | None -> Alcotest.fail "expected a failure to replay"
  | Some f -> (
      match
        Chaos.run_one ~messages:30 ~config:Chaos.naive_restart_config Blockack.Protocols.multi
          f.Chaos.incident.Chaos.fault ~seed:f.Chaos.incident.Chaos.seed
      with
      | None -> Alcotest.fail "replay did not reproduce the failure"
      | Some g ->
          check Alcotest.string "same crash plan"
            (key f.Chaos.incident.Chaos.crash_plan)
            (key g.Chaos.incident.Chaos.crash_plan);
          check Alcotest.int "same delivered count" f.Chaos.result.Harness.delivered
            g.Chaos.result.Harness.delivered;
          check Alcotest.int "same duplicate count" f.Chaos.result.Harness.duplicates
            g.Chaos.result.Harness.duplicates)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "crash"
    [
      ( "harness",
        [
          Alcotest.test_case "sender crash recovers" `Quick test_sender_crash_recovers;
          Alcotest.test_case "receiver crash recovers" `Quick test_receiver_crash_recovers;
          Alcotest.test_case "double crash recovers" `Quick test_double_crash_recovers;
          Alcotest.test_case "crash under loss" `Quick test_crash_under_loss;
          Alcotest.test_case "simple sender crash" `Quick test_simple_sender_crash_recovers;
          Alcotest.test_case "crash at t=0" `Quick test_crash_before_start_and_after_end;
        ] );
      ( "epochs",
        [
          Alcotest.test_case "naive restart is unsafe" `Quick test_naive_receiver_restart_unsafe;
          Alcotest.test_case "epochs close the hole" `Quick test_epochs_close_the_hole;
        ] );
      ( "results",
        [
          Alcotest.test_case "zero-crash result unchanged" `Quick test_zero_crash_result_unchanged;
          Alcotest.test_case "crash segment printed" `Quick test_crash_result_pp;
          Alcotest.test_case "plan validation + replay key" `Quick test_crash_plan_validation;
          Alcotest.test_case "deterministic" `Quick test_determinism;
        ] );
      ( "campaign",
        [
          Alcotest.test_case "crash class clean for blockack-multi" `Quick
            test_campaign_crash_class_clean;
          Alcotest.test_case "naive restart fails the campaign" `Quick
            test_campaign_naive_restart_fails;
          Alcotest.test_case "unsupported protocol skipped" `Quick
            test_campaign_crash_skipped_when_unsupported;
          Alcotest.test_case "crash failures replay exactly" `Quick
            test_campaign_crash_failure_replays;
        ] );
    ]
