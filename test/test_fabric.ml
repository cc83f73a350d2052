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

(* Whether the entry's protocol has a crash-restart lifecycle. *)
let crash_tolerant e =
  let (module P : Ba_proto.Protocol.S) = e.Registry.protocol in
  Option.is_some P.lifecycle

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
         List.for_all Harness.correct r.Fabric.flows))

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
    (Ba_util.Counters.get r.Fabric.data_link Offered >= 6 * 20)

let test_fabric_rejects_empty () =
  Alcotest.check_raises "empty spec list"
    (Invalid_argument "Fabric.run: at least one flow required") (fun () ->
      ignore (Fabric.run []))

(* A negative [messages] or [payload_size] is a parameter error in each
   runner, named in its message, before it can reach admission's cost
   or a flow's arrays. *)
let test_negative_workload_rejected () =
  let p = (entry "blockack").Registry.protocol in
  let ok = Fabric.spec ~messages:5 p in
  List.iter
    (fun (field, bad, harness) ->
      let rejects who run =
        Alcotest.check_raises (who ^ " " ^ field)
          (Invalid_argument (Printf.sprintf "%s: %s must be >= 0" who field))
          run
      in
      rejects "Harness.run" (fun () -> ignore (harness ()));
      rejects "Fabric.run" (fun () -> ignore (Fabric.run ~memory_budget:1_000 [ ok; bad; ok ]));
      rejects "Shard.run" (fun () -> ignore (Ba_proto.Shard.run ~jobs:1 [ bad ])))
    [
      ("messages", Fabric.spec ~messages:(-3) p, fun () -> Harness.run p ~messages:(-3) ());
      ( "payload_size",
        Fabric.spec ~payload_size:(-100) p,
        fun () -> Harness.run p ~payload_size:(-100) () );
    ]

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
    data_outage_drops = 0;
    acks_dropped = 0;
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
    (match crash with Some p -> Format.asprintf "%a" Crash_plan.pp p | None -> "-")

let test_harness_is_one_flow_fabric =
  qcheck
    (QCheck.Test.make ~count:40 ~name:"harness run = one-spec fabric run, field for field"
       (QCheck.make ~print:one_flow_print one_flow_gen)
       (fun (name, seed, loss, crash) ->
         let e = entry name in
         let config = Registry.config ~window:8 ~rto:400 e () in
         (* Plans only for protocols with a crash lifecycle, as campaigns do. *)
         let crash = if crash_tolerant e then crash else None in
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
         | flows ->
             QCheck.Test.fail_reportf
               "%s: window 8, rto 400, 60 messages, delay Uniform (40, 80) each way\n\
                harness:\n%a\nfabric flows (%d):\n%a"
               (one_flow_print (name, seed, loss, crash))
               Harness.pp_result h (List.length flows)
               (Format.pp_print_list Harness.pp_result) flows))

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

(* A protocol's [validate] rejects exactly the configs its constructors
   reject, with the same reason, so a CLI can check a config without
   building endpoints. *)
let test_registry_validate_is_constructors () =
  let outcome f = match f () with () -> None | exception Invalid_argument m -> Some m in
  List.iter
    (fun e ->
      let (module P : Ba_proto.Protocol.S) = e.Registry.protocol in
      List.iter
        (fun (window, wire_modulus) ->
          let config = { Ba_proto.Proto_config.default with window; wire_modulus } in
          let build () =
            let engine = Ba_sim.Engine.create () in
            ignore
              (P.create_sender engine config ~tx:ignore ~next_payload:(fun () ->
                   raise Ba_proto.Protocol.Exhausted));
            ignore (P.create_receiver engine config ~tx:ignore ~deliver:ignore)
          in
          check
            Alcotest.(option string)
            (Printf.sprintf "%s w=%d n=%s" e.Registry.name window
               (match wire_modulus with Some n -> string_of_int n | None -> "-"))
            (outcome build)
            (outcome (fun () -> P.validate config)))
        [ (4, None); (4, Some 3); (4, Some 5); (4, Some 7); (4, Some 8); (4, Some 15);
          (4, Some 16); (0, None) ])
    Registry.all

(* ------------------------------------------------------------------ *)
(* Capability digest *)

(* Every registry protocol through the fabric paths that reach a
   protocol's optional capabilities: a memory budget that clamps (memory
   accounting, window clamp), a watchdog with a data-link outage to set
   it off (the resync lever), and crash plans on the protocols with a
   crash lifecycle. One MD5 over each run's per-flow result lines and
   fabric counters holds those paths to unchanged behaviour. *)
let capability_watchdog =
  {
    Ba_proto.Watchdog.check_interval = 300;
    stall_checks = 1;
    degraded_checks = 1;
    max_resyncs = 2;
    probation_checks = 2;
  }

let capability_run ~seed entries =
  let flows =
    List.concat_map
      (fun e ->
        let config = Registry.config ~window:8 ~rto:400 e () in
        let spec = Fabric.spec ~config ~messages:40 ~payload_size:16 e.Registry.protocol in
        [ (crash_tolerant e, spec); (crash_tolerant e, spec) ])
      entries
  in
  (* even flows lose their sender, odd flows their receiver *)
  let crash_plan k =
    if k mod 2 = 0 then
      [ { Crash_plan.at = 600 + (37 * seed); endpoint = Sender_end; down_for = 300 } ]
    else [ { Crash_plan.at = 900; endpoint = Receiver_end; down_for = 200 } ]
  in
  let outage = { Ba_channel.Fault_plan.from_tick = 1000; until_tick = 3000 } in
  let r =
    Fabric.run ~seed ~data_loss:0.05 ~ack_loss:0.05 ~data_delay:(Dist.Uniform (40, 80))
      ~ack_delay:(Dist.Uniform (40, 80))
      ~data_plan:(Ba_channel.Fault_plan.make ~outages:[ outage ] ())
      ~memory_budget:(List.length flows * 160) ~watchdog:capability_watchdog
      ~on_flows:(fun _ cell ->
        List.iteri
          (fun k (crashable, _) ->
            if crashable then Cell.schedule_crashes cell k (crash_plan k))
          flows)
      (List.map snd flows)
  in
  let n = Ba_util.Counters.get r.Fabric.counters in
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Printf.bprintf b "%s crash_tolerant=%b\n" e.Registry.name (crash_tolerant e))
    entries;
  Printf.bprintf b "seed=%d mem_peak=%d clamp=%s refused=%d resyncs=%d quarantines=%d\n" seed
    r.Fabric.mem_peak_bytes
    (match r.Fabric.clamped_window with Some c -> string_of_int c | None -> "-")
    (n Refused) (n Watchdog_resyncs) (n Quarantine_events);
  List.iter (Format.kasprintf (Buffer.add_string b) "%a\n" Harness.pp_result) r.Fabric.flows;
  Buffer.contents b

let test_capability_digest () =
  let all = Buffer.create (1 lsl 16) in
  List.iter
    (fun seed ->
      List.iter (fun e -> Buffer.add_string all (capability_run ~seed [ e ])) Registry.all;
      Buffer.add_string all (capability_run ~seed Registry.all))
    [ 1; 2; 3 ];
  check Alcotest.string "capability digest" "bf69bac65da5840e00c7ec5cf58328de"
    (Digest.to_hex (Digest.string (Buffer.contents all)))

(* ------------------------------------------------------------------ *)
(* Flight-sized accounting *)

(* The runs the cell's delivery accounting must judge exactly: every
   registry protocol at its default modulus; Section VI reuse with a 3w
   lead, wider than the 2w flight ring; bounded go-back-N at modulus
   w + 1, which misorders; and go-back-N through duplicating, corrupting
   data faults, which it delivers verbatim. The two go-back-N runs
   deliver a wrong payload in place of a message that then never
   arrives, so later pulls lap it and the spill table is exercised. The
   3w lead does not get there: the block-ack receiver acknowledges only
   what it has delivered, so at most w pulls are ever undelivered. *)
let accounting_cases =
  let gbn = entry "go-back-n" in
  List.map
    (fun e -> (e.Registry.name, e.Registry.protocol, Registry.config ~window:8 ~rto:400 e (), None))
    Registry.all
  @ [
      ( "reuse-lead3",
        Blockack.Protocols.reuse ~lead_factor:3 (),
        Ba_proto.Proto_config.make ~window:8 ~rto:400 ~wire_modulus:(Some 48) (),
        None );
      ( "go-back-n-mod9",
        gbn.Registry.protocol,
        Registry.config ~window:8 ~rto:400 ~modulus:9 gbn (),
        None );
      ( "go-back-n-dup-corrupt",
        gbn.Registry.protocol,
        Registry.config ~window:8 ~rto:400 gbn (),
        Some (Ba_channel.Fault_plan.make ~duplicate:0.1 ~corrupt:0.05 ()) );
    ]

let accounting_line ~seed ~loss (name, protocol, config, data_plan) =
  let delay = Dist.Uniform (40, 80) in
  let r =
    Harness.run protocol ~seed ~messages:120 ~config ~data_loss:loss ~ack_loss:loss
      ~data_delay:delay ~ack_delay:delay ?data_plan ()
  in
  Printf.sprintf
    "%s loss=%.1f completed=%b ticks=%d delivered=%d dup=%d ooo=%d bad=%d retx_bytes=%d \
     resync=%d lat=%s"
    name loss r.completed r.ticks r.delivered r.duplicates r.misordered r.corrupted r.retx_bytes
    r.resync_rounds
    (String.concat "," (List.map (Printf.sprintf "%.0f") (List.sort compare (Array.to_list r.latencies))))

(* Each seed's MD5 over every case at loss 0 and 0.1, recorded when the
   cell still kept a delivered bit and a transmitted bit per message of
   the transfer. Go-back-N at modulus w + 1 and under duplication and
   corruption pin [retx_bytes] on the spill path. *)
let accounting_digests =
  [|
    "2f3be7446e4f5c130441742212f586d0"; "748a2491c62cb7cf76f7da432f75efb8";
    "e845098377fc57867c93ed264c4d2dbb"; "5dc3b61675eba72e4a9ab05bf4c7579d";
    "0741c00c4bb6819ad1a7f03e35890986"; "269e59cf38d82499978810286cf1528c";
    "b49295ff958b6e5a0616339743f35c4f"; "470590be10a1450e8e298e4cd531c7f4";
  |]

let test_accounting_exact =
  qcheck
    (QCheck.Test.make ~count:12
       ~name:"flight rings keep verdicts and latencies of per-message accounting"
       (Arb.int_range 1 (Array.length accounting_digests))
       (fun seed ->
         let lines =
           List.concat_map
             (fun case -> List.map (fun loss -> accounting_line ~seed ~loss case) [ 0.; 0.1 ])
             accounting_cases
         in
         let got = Digest.to_hex (Digest.string (String.concat "\n" lines)) in
         got = accounting_digests.(seed - 1)
         || QCheck.Test.fail_reportf "seed %d: digest %s\n%s" seed got (String.concat "\n" lines)))

(* Pulls moved to the spill table by one flow on a lossy, jittered
   channel. *)
let spilled ~seed protocol config =
  let n = ref (-1) in
  let cell = ref None in
  ignore
    (Fabric.run ~seed ~data_loss:0.1 ~ack_loss:0.1 ~data_delay:(Dist.Uniform (40, 80))
       ~ack_delay:(Dist.Uniform (40, 80))
       ~on_flows:(fun _ c -> cell := Some c)
       [ Fabric.spec ~config ~messages:300 protocol ]);
  Option.iter (fun c -> n := Cell.spilled c) !cell;
  !n

let test_spill_stays_empty () =
  List.iter
    (fun e ->
      List.iter
        (fun seed ->
          check Alcotest.int
            (Printf.sprintf "%s seed %d spills nothing" e.Registry.name seed)
            0
            (spilled ~seed e.Registry.protocol (Registry.config e ())))
        [ 1; 2; 3 ])
    Registry.all;
  let gbn = entry "go-back-n" in
  if spilled ~seed:1 gbn.Registry.protocol (Registry.config ~window:8 ~modulus:9 gbn ()) <= 0 then
    Alcotest.fail "go-back-N at modulus w + 1 never lapped its ring: the spill path went untested"

(* Live bytes a one-flow cell holds after [Cell.create]: blockack-multi
   at w=16. Nothing in it is sized by the transfer: the per-message
   accounting is a flight ring of 2w slots. *)
let cell_bytes ~messages =
  let e = entry "blockack-multi" in
  let live () =
    Ba_util.Column_pool.clear ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let before = live () in
  let c =
    Cell.create ~engine_seed:1 ~wseed:Fun.id ~data_loss:0. ~ack_loss:0.
      ~data_delay:(Dist.Constant 50) ~ack_delay:(Dist.Constant 50)
      (Cell.admission
         [ Cell.spec ~config:(Registry.config ~window:16 e ()) ~messages e.Registry.protocol ])
  in
  let bytes = live () - before in
  ignore (Sys.opaque_identity c);
  bytes

(* The 100k-message cell must also stay under a ceiling: 4,208 B on
   x86-64, deterministic, so the ~50% headroom is for layout changes
   elsewhere in the cell, not for noise. One int or payload column per
   message would add 800 kB. *)
let test_cell_state_flat () =
  let small = cell_bytes ~messages:1_000 and large = cell_bytes ~messages:100_000 in
  let allowed = 512 and ceiling = 6_250 in
  Printf.printf "cell state: %d B at 1k messages, %d B at 100k\n%!" small large;
  if large - small > allowed then
    Alcotest.failf "cell state grew %d B from 1k to 100k messages, want <= %d" (large - small)
      allowed;
  if large > ceiling then
    Alcotest.failf "cell state %d B at 100k messages, want <= %d" large ceiling

(* A runner retires its cell when it returns: the cell's columns go back
   to the column pool for the next run. A caller that kept the cell from
   [on_setup] or [on_flows] gets [Invalid_argument] for scheduling on
   its engine, sending on its links or starting it, instead of writing
   into a column another run may own; what it only reads ([flows],
   [spilled], the links' counters) still answers. *)
let test_retired_cell_refuses () =
  let e = entry "blockack" in
  let refuses what c =
    let fails name f =
      match f () with
      | () -> Alcotest.failf "%s: %s on a retired cell did not raise" what name
      | exception Invalid_argument _ -> ()
    in
    fails "Engine.schedule" (fun () -> Ba_sim.Engine.schedule (Cell.engine c) ~delay:0 ignore);
    fails "Engine.slot_create" (fun () -> ignore (Ba_sim.Engine.slot_create (Cell.engine c) ignore));
    fails "Link.send_tagged" (fun () ->
        Ba_channel.Link.send_tagged (Cell.data_link c) 0 (Ba_proto.Wire.make_data ~seq:0 ~payload:"x"));
    fails "Cell.start" (fun () -> Cell.start c);
    fails "Cell.counters" (fun () -> ignore (Cell.counters c));
    check Alcotest.int (what ^ ": flows still answers") 1 (Cell.flows c);
    check Alcotest.int (what ^ ": spilled still answers") 0 (Cell.spilled c)
  in
  let kept = ref None in
  let r = Harness.run e.Registry.protocol ~messages:20 ~on_setup:(fun c -> kept := Some c) () in
  check Alcotest.bool "Harness.run completed" true r.Harness.completed;
  refuses "Harness.run" (Option.get !kept);
  kept := None;
  let r =
    Fabric.run
      ~on_flows:(fun _ c -> kept := Some c)
      [ Fabric.spec ~config:(Registry.config e ()) ~messages:20 e.Registry.protocol ]
  in
  check Alcotest.bool "Fabric.run completed" true r.Fabric.completed;
  refuses "Fabric.run" (Option.get !kept)

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
          Alcotest.test_case "negative workload rejected by every runner" `Quick
            test_negative_workload_rejected;
          Alcotest.test_case "Jain's fairness index" `Quick test_jain;
          test_harness_is_one_flow_fabric;
          Alcotest.test_case "pinned capability digest" `Quick test_capability_digest;
          Alcotest.test_case "a retired cell refuses use" `Quick test_retired_cell_refuses;
        ] );
      ( "accounting",
        [
          test_accounting_exact;
          Alcotest.test_case "spill table stays empty" `Quick test_spill_stays_empty;
          Alcotest.test_case "cell state independent of transfer length" `Quick
            test_cell_state_flat;
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
          Alcotest.test_case "validate rejects what the constructors reject" `Quick
            test_registry_validate_is_constructors;
        ] );
    ]
