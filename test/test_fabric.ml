(* Multi-connection fabric and registry tests: determinism of shared-link
   runs (a fabric run is a pure function of its seed), per-flow safety
   under a lossy contended bottleneck, Jain's index arithmetic, and the
   shared protocol registry (canonical names, aliases, error text,
   recommended moduli). *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Fabric = Ba_proto.Fabric
module Harness = Ba_proto.Harness
module Registry = Ba_registry.Registry
module Dist = Ba_channel.Dist

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry is missing %S" name

(* A heterogeneous mix of the protocols that must stay safe on a lossy,
   reordering, contended link: the two robust registry entries plus
   go-back-N with unbounded wire numbers (safe, merely slow). *)
let mixed_specs ~messages =
  List.concat_map
    (fun name ->
      let e = entry name in
      let config = Registry.config ~window:6 ~rto:800 e () in
      List.init 2 (fun _ -> Fabric.spec ~config ~messages e.Registry.protocol))
    [ "blockack-multi"; "selective-repeat"; "go-back-n" ]

let run_lossy ~seed specs =
  Fabric.run ~seed ~data_loss:0.05 ~ack_loss:0.05 ~data_delay:(Dist.Uniform (40, 80))
    ~ack_delay:(Dist.Uniform (40, 80)) ~data_bottleneck:(3, 16) specs

(* ------------------------------------------------------------------ *)
(* Determinism and safety *)

let test_fabric_deterministic =
  qcheck
    (QCheck.Test.make ~count:25 ~name:"same seed, same fabric run — structurally equal"
       QCheck.(int_range 0 10_000)
       (fun seed ->
         let a = run_lossy ~seed (mixed_specs ~messages:25) in
         let b = run_lossy ~seed (mixed_specs ~messages:25) in
         a = b))

let test_fabric_safety =
  qcheck
    (QCheck.Test.make ~count:15
       ~name:"every flow of a correct protocol stays clean under a shared lossy bottleneck"
       QCheck.(int_range 0 10_000)
       (fun seed ->
         let r = run_lossy ~seed (mixed_specs ~messages:30) in
         List.for_all
           (fun (f : Harness.result) ->
             f.Harness.duplicates = 0 && f.Harness.misordered = 0 && f.Harness.corrupted = 0
             && f.Harness.completed)
           r.Fabric.flows))

let test_fabric_flow_accounting () =
  let r = run_lossy ~seed:7 (mixed_specs ~messages:20) in
  check Alcotest.int "six flows" 6 (List.length r.Fabric.flows);
  check Alcotest.bool "run completed" true r.Fabric.completed;
  List.iteri
    (fun i (f : Harness.result) ->
      check Alcotest.int (Printf.sprintf "flow %d delivered all" i) 20 f.Harness.delivered;
      check Alcotest.bool (Printf.sprintf "flow %d correct" i) true (Harness.correct f))
    r.Fabric.flows;
  (* The shared data link carried every flow's traffic. *)
  check Alcotest.bool "shared link saw aggregate traffic" true
    (r.Fabric.data_stats.Ba_channel.Link.sent >= 6 * 20)

let test_fabric_rejects_empty () =
  Alcotest.check_raises "empty spec list"
    (Invalid_argument "Fabric.run: at least one flow required") (fun () ->
      ignore (Fabric.run []))

let test_jain () =
  let feq = Alcotest.float 1e-9 in
  check feq "even split" 1.0 (Fabric.jain [ 3.; 3.; 3.; 3. ]);
  check feq "one hoarder" 0.25 (Fabric.jain [ 5.; 0.; 0.; 0. ]);
  check feq "degenerate empty" 1.0 (Fabric.jain []);
  check feq "degenerate zeros" 1.0 (Fabric.jain [ 0.; 0. ]);
  let mixed = Fabric.jain [ 4.; 2. ] in
  check Alcotest.bool "between 1/n and 1" true (mixed > 0.5 && mixed < 1.0)

(* ------------------------------------------------------------------ *)
(* Single-flow endpoint failure: a crash inside one flow must be invisible
   to the other n-1 flows sharing the links. *)

module Cell = Ba_proto.Cell
module Crash_plan = Ba_proto.Crash_plan

(* Four blockack-multi flows; flow 0's receiver crashes mid-transfer and
   restarts 400 ticks later. *)
let crash_specs ~messages =
  let e = entry "blockack-multi" in
  let config = Registry.config ~window:6 ~rto:800 e () in
  List.init 4 (fun _ -> Fabric.spec ~config ~messages e.Registry.protocol)

let run_with_crash ~seed ~victim specs =
  Fabric.run ~seed ~data_loss:0.05 ~ack_loss:0.05 ~data_delay:(Dist.Uniform (40, 80))
    ~ack_delay:(Dist.Uniform (40, 80)) ~data_bottleneck:(3, 16)
    ~on_flows:(fun _ cell ->
      Cell.schedule_crashes cell victim
        [ { Crash_plan.at = 600; endpoint = Crash_plan.Receiver_end; down_for = 400 } ])
    specs

let test_single_flow_crash_isolated () =
  List.iter
    (fun seed ->
      let r = run_with_crash ~seed ~victim:0 (crash_specs ~messages:30) in
      check Alcotest.bool "every flow still completes" true r.Fabric.completed;
      List.iteri
        (fun i (f : Harness.result) ->
          check Alcotest.bool (Printf.sprintf "flow %d correct" i) true (Harness.correct f);
          if i = 0 then begin
            check Alcotest.int "victim saw the crash" 1 f.Harness.crashes;
            check Alcotest.int "victim saw the restart" 1 f.Harness.restarts
          end
          else begin
            check Alcotest.int (Printf.sprintf "flow %d crash-free" i) 0 f.Harness.crashes;
            check Alcotest.int (Printf.sprintf "flow %d no resync" i) 0 f.Harness.resync_rounds
          end)
        r.Fabric.flows)
    [ 1; 2; 3 ]

let test_single_flow_crash_no_stall () =
  (* The survivors must not be slowed to the victim's recovery schedule:
     each non-victim flow finishes no later than in a crash-free run of
     the same seed plus a small scheduling tolerance. *)
  let specs = crash_specs ~messages:30 in
  let baseline = run_lossy ~seed:11 specs in
  let crashed = run_with_crash ~seed:11 ~victim:0 specs in
  List.iteri
    (fun i ((b : Harness.result), (c : Harness.result)) ->
      if i > 0 then begin
        if not c.Harness.completed then Alcotest.failf "survivor flow %d stalled" i;
        (* Generous bound: contention shifts individual timings, but a
           survivor must not be held up for anything like the victim's
           400-tick outage plus resync. *)
        if float_of_int c.Harness.ticks > (1.5 *. float_of_int b.Harness.ticks) +. 400. then
          Alcotest.failf "survivor flow %d slowed from %d to %d ticks" i b.Harness.ticks
            c.Harness.ticks
      end)
    (List.combine baseline.Fabric.flows crashed.Fabric.flows
    |> List.map (fun (a, b) -> (a, b)))

let test_fabric_crash_deterministic () =
  let snap () =
    let r = run_with_crash ~seed:5 ~victim:0 (crash_specs ~messages:25) in
    (r.Fabric.ticks, List.map (fun (f : Harness.result) -> f.Harness.delivered) r.Fabric.flows)
  in
  check
    Alcotest.(pair int (list int))
    "same seed, same crashed-fabric run" (snap ()) (snap ())

(* ------------------------------------------------------------------ *)
(* One cell behind every runner: a harness run is a one-flow cell, so it equals the same
   flow run as the only spec of a fabric on every field the flow owns.
   Only the link counters differ: private links attribute their drops,
   reorderings and faults to the one flow; shared ones cannot. *)

let flow_owned (r : Harness.result) =
  {
    r with
    Harness.data_dropped = 0;
    data_queue_dropped = 0;
    data_reordered = 0;
    data_duplicated = 0;
    data_corrupted = 0;
    data_outage_drops = 0;
    acks_dropped = 0;
    acks_corrupted = 0;
    ack_outage_drops = 0;
  }

let one_flow_gen =
  QCheck.Gen.(
    let* name =
      oneofl [ "blockack-simple"; "blockack-multi"; "go-back-n"; "selective-repeat" ]
    in
    let* seed = int_range 1 3 in
    let* loss = oneofl [ 0.; 0.05; 0.2 ] in
    let* crash =
      opt
        (let* at = int_range 100 1500 in
         let* endpoint = oneofl [ Crash_plan.Sender_end; Crash_plan.Receiver_end ] in
         let* down_for = int_range 50 600 in
         return [ { Crash_plan.at; endpoint; down_for } ])
    in
    return (name, seed, loss, crash))

let one_flow_print (name, seed, loss, crash) =
  Printf.sprintf "%s seed=%d loss=%.2f crash=%s" name seed loss
    (match crash with Some p -> Crash_plan.to_string p | None -> "-")

let test_harness_is_one_flow_fabric =
  qcheck
    (QCheck.Test.make ~count:40 ~name:"harness run = one-spec fabric run, field for field"
       (QCheck.make ~print:one_flow_print one_flow_gen)
       (fun (name, seed, loss, crash) ->
         let e = entry name in
         let config = Registry.config ~window:8 ~rto:400 e () in
         (* Plans only for protocols with a crash lifecycle, as campaigns do. *)
         let crash = if Registry.crash_tolerant e then crash else None in
         let delay = Dist.Uniform (40, 80) in
         let h =
           Harness.run e.Registry.protocol ~seed ~messages:60 ~config ~data_loss:loss
             ~ack_loss:loss ~data_delay:delay ~ack_delay:delay ?crash_plan:crash ()
         in
         let f =
           Fabric.run ~seed ~data_loss:loss ~ack_loss:loss ~data_delay:delay ~ack_delay:delay
             ~on_flows:(fun _ cell -> Option.iter (Cell.schedule_crashes cell 0) crash)
             [ Fabric.spec ~config ~messages:60 e.Registry.protocol ]
         in
         match f.Fabric.flows with
         | [ fl ] when flow_owned h = fl -> true
         | [ fl ] ->
             QCheck.Test.fail_reportf "harness:\n%a\nfabric:\n%a" Harness.pp_result h
               Harness.pp_result fl
         | _ -> QCheck.Test.fail_report "fabric did not admit exactly one flow"))

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_names () =
  check
    Alcotest.(list string)
    "canonical names, presentation order"
    [
      "blockack-simple"; "blockack-multi"; "blockack-reuse"; "go-back-n";
      "selective-repeat"; "stenning"; "alternating-bit";
    ]
    Registry.names

let test_registry_aliases () =
  List.iter
    (fun (alias, canonical) ->
      match Registry.find alias with
      | Some e -> check Alcotest.string alias canonical e.Registry.name
      | None -> Alcotest.failf "alias %S did not resolve" alias)
    [ ("blockack", "blockack-multi"); ("gbn", "go-back-n"); ("sr", "selective-repeat");
      ("abp", "alternating-bit") ]

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_registry_unknown () =
  check Alcotest.bool "unknown name" true (Registry.find "no-such-protocol" = None);
  match Registry.parse "no-such-protocol" with
  | Ok _ -> Alcotest.fail "parse accepted an unknown name"
  | Error msg ->
      List.iter
        (fun needle ->
          check Alcotest.bool
            (Printf.sprintf "error mentions %s" needle)
            true (contains ~needle msg))
        [ "no-such-protocol"; "blockack-multi"; "go-back-n" ]

let test_registry_robust () =
  check
    Alcotest.(list string)
    "audited robust set" [ "blockack-multi"; "selective-repeat" ]
    (List.map (fun e -> e.Registry.name) Registry.robust)

let test_registry_config_moduli () =
  let modulus name ~window =
    (Registry.config ~window (entry name) ()).Ba_proto.Proto_config.wire_modulus
  in
  check Alcotest.(option int) "blockack-multi uses n = 2w" (Some 16)
    (modulus "blockack-multi" ~window:8);
  check Alcotest.(option int) "blockack-reuse uses n = 4w" (Some 32)
    (modulus "blockack-reuse" ~window:8);
  check Alcotest.(option int) "go-back-n defaults to unbounded wire numbers" None
    (modulus "go-back-n" ~window:8);
  check Alcotest.(option int) "explicit modulus wins" (Some 64)
    (Registry.config ~window:8 ~modulus:64 (entry "blockack-multi") ())
      .Ba_proto.Proto_config.wire_modulus

let () =
  Alcotest.run "fabric"
    [
      ( "fabric",
        [
          test_fabric_deterministic;
          test_fabric_safety;
          Alcotest.test_case "per-flow accounting over a shared link" `Quick
            test_fabric_flow_accounting;
          Alcotest.test_case "empty spec list rejected" `Quick test_fabric_rejects_empty;
          Alcotest.test_case "Jain's fairness index" `Quick test_jain;
          test_harness_is_one_flow_fabric;
        ] );
      ( "crash isolation",
        [
          Alcotest.test_case "single-flow crash is invisible to the others" `Quick
            test_single_flow_crash_isolated;
          Alcotest.test_case "survivors do not stall on the victim's recovery" `Quick
            test_single_flow_crash_no_stall;
          Alcotest.test_case "crashed fabric run is deterministic" `Quick
            test_fabric_crash_deterministic;
        ] );
      ( "registry",
        [
          Alcotest.test_case "canonical names" `Quick test_registry_names;
          Alcotest.test_case "aliases resolve" `Quick test_registry_aliases;
          Alcotest.test_case "unknown names and error text" `Quick test_registry_unknown;
          Alcotest.test_case "robust subset" `Quick test_registry_robust;
          Alcotest.test_case "recommended moduli" `Quick test_registry_config_moduli;
        ] );
    ]
