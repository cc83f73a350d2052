(* Sharded-fabric tests (also wired to the `shard-smoke` alias): the
   scale runner must be a pure function of the model parameters —
   [jobs] is a scheduling knob, so a sharded run is byte-identical to
   the unsharded ([jobs = 1]) run for any job count, including under
   storm churn — and
   the cell-local admission/lease machinery must keep its Fabric
   semantics (budgets honoured, capacity-limited runs complete). *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Shard = Ba_proto.Shard
module Fabric = Ba_proto.Fabric
module Chaos = Ba_verify.Chaos
module Registry = Ba_registry.Registry
module Dist = Ba_channel.Dist
module Counters = Ba_util.Counters
module Qsketch = Ba_util.Qsketch

let entry name =
  match Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "registry is missing %S" name

let mixed_specs ~messages ~flows =
  let protos = [| "blockack-multi"; "selective-repeat"; "go-back-n" |] in
  List.init flows (fun i ->
      let e = entry protos.(i mod Array.length protos) in
      let config = Registry.config ~window:4 ~rto:800 e () in
      Fabric.spec ~config ~messages ~payload_size:24 e.Registry.protocol)

(* ------------------------------------------------------------------ *)
(* Baseline behaviour *)

let test_clean_run_completes () =
  let specs = mixed_specs ~messages:6 ~flows:48 in
  let r = Shard.run ~seed:7 ~jobs:1 ~cell:8 specs in
  check Alcotest.bool "completed" true r.Shard.completed;
  check Alcotest.int "cells" 6 r.Shard.cells;
  check Alcotest.int "flows" 48 r.Shard.flows;
  let n = Counters.get r.Shard.counters in
  check Alcotest.int "all delivered" (n Messages) (n Delivered);
  check Alcotest.int "no duplicates" 0 (n Duplicates);
  check Alcotest.int "no corruption" 0 (n Corrupted);
  check Alcotest.int "nothing refused" 0 (n Refused);
  check Alcotest.(option int) "no unsafe cell" None r.Shard.unsafe_cell

let test_measured_run_fills_state_bytes () =
  (* Measuring state is observation only: the measured run is the plain
     run, plus its state figure. *)
  let specs = mixed_specs ~messages:4 ~flows:16 in
  let run ~measure_mem = Shard.run ~seed:5 ~jobs:1 ~cell:8 ~measure_mem specs in
  let r = run ~measure_mem:true in
  check Alcotest.string "same run" (Shard.summary (run ~measure_mem:false)) (Shard.summary r);
  check Alcotest.bool "state measured" true (r.Shard.state_bytes > 0)

let test_capacity_lease_run_completes () =
  (* A tight shared bottleneck realised as per-cell leases: the run must
     still complete, and the lease layer (not the per-cell links) must
     be doing the queueing. *)
  let specs = mixed_specs ~messages:5 ~flows:24 in
  let r = Shard.run ~seed:11 ~jobs:1 ~cell:6 ~capacity:(2, 64) specs in
  let n = Counters.get r.Shard.counters in
  check Alcotest.bool "completed under lease" true r.Shard.completed;
  check Alcotest.int "all delivered" (n Messages) (n Delivered)

let test_capacity_needs_positive_members () =
  (* A lease clamped a zero service time to 1 and a zero queue to 4
     slots, so a nonsensical capacity ran; both modes now refuse it. *)
  let specs = mixed_specs ~messages:2 ~flows:4 in
  let refused =
    Invalid_argument "Cell.create: bottleneck needs positive service time and queue capacity"
  in
  List.iter
    (fun capacity ->
      Alcotest.check_raises "shard capacity" refused (fun () ->
          ignore (Shard.run ~jobs:1 ~cell:2 ~capacity specs));
      Alcotest.check_raises "fabric bottleneck" refused (fun () ->
          ignore (Fabric.run ~data_bottleneck:capacity specs)))
    [ (0, 64); (2, 0); (-1, 8) ]

let test_budget_admission_is_cell_local () =
  (* A budget far below the unclamped demand: every cell must degrade
     (clamp or refuse) using only its own share, and the sampled model
     memory must respect the global budget. *)
  let specs = mixed_specs ~messages:5 ~flows:32 in
  let budget = 4 * 1024 in
  let r = Shard.run ~seed:3 ~jobs:1 ~cell:8 ~memory_budget:budget specs in
  let n = Counters.get r.Shard.counters in
  check Alcotest.bool "degraded somewhere" true (n Clamped_cells > 0 || n Refused > 0);
  check Alcotest.bool "sampled peak within budget" true (r.Shard.mem_peak_bytes <= budget)

(* [Shard.summary] of 4,096 two-message blockack flows, shaped like the
   benchmark's shard-100k (window 8, rto 400, default cell), at seeds
   1-3, on a clean channel and at 5% loss each way (about 1,100
   retransmissions a run, so every sender's timer fires). The digests
   were recorded before the per-flow state was cut (endpoint codec
   records, timer closures and policy fields, link arena columns, the
   cell's wiring closures), which changed no event, stamp or slot id. *)
let test_summary_digests () =
  let e = entry "blockack-multi" in
  let config = Registry.config ~window:8 ~rto:400 e () in
  let specs = List.init 4096 (fun _ -> Fabric.spec ~config ~messages:2 e.Registry.protocol) in
  List.iter
    (fun (loss, seed, want) ->
      let r = Shard.run ~seed ~jobs:1 ~data_loss:loss ~ack_loss:loss specs in
      check Alcotest.string
        (Printf.sprintf "loss %.2f seed %d" loss seed)
        want
        (Digest.to_hex (Digest.string (Shard.summary r))))
    [
      (0., 1, "9778d2c6ef89490bd59a5ae2e7c5fd39");
      (0., 2, "b9ed3956563d4d9a3c14e9fcc169ad01");
      (0., 3, "44740db044614d06b74ea8821b0182fa");
      (0.05, 1, "454501c4ab54171a7d425d07f31f41d4");
      (0.05, 2, "960041427ece6d8a7470f1916115dfed");
      (0.05, 3, "85bf2e957add3cc626b860e502ff96f9");
    ]

(* [Shard.summary] digests of a grid of runs without capacity, recorded
   when [Shard.run] still built every cell before running any, so they
   pin that streaming the cells one at a time changed no output. The
   grid covers loss, a memory budget that clamps and refuses, a
   watchdog, storm plans and churn, and runs whose cells never
   complete: one cut by an explicit deadline, and one at the default
   horizon, where odd cells sit under a data outage that outlasts the
   run and a budget refuses flows, so the horizon is taken over the
   admitted flows only. Every case runs at jobs 1 and 2. *)
let test_pinned_grid () =
  let outage = Ba_channel.Fault_plan.make ~outages:[ { from_tick = 0; until_tick = 10_000_000 } ] () in
  let odd_cells_dark ~seed ~cell_seed =
    if (cell_seed - seed) / 104729 mod 2 = 0 then (outage, Ba_channel.Fault_plan.none)
    else (Ba_channel.Fault_plan.none, Ba_channel.Fault_plan.none)
  in
  let storm ~cell_seed = Chaos.plans_for Chaos.Storm ~seed:cell_seed in
  let churn ~seed =
    let e = entry "blockack-multi" in
    let config = Registry.config ~window:4 ~rto:800 e () in
    Fabric.churn ~base:2 ~churners:2 ~messages:5 ~payload_size:24 ~config ~seed
      e.Registry.protocol
    @ mixed_specs ~messages:5 ~flows:12
  in
  let dog = Ba_proto.Watchdog.default_config in
  let cases =
    [
      ( "loss",
        "66616e6a9a38c847fb5a5df6e081642f",
        fun jobs ->
          Shard.run ~seed:5 ~jobs ~cell:7 ~barrier:500 ~data_loss:0.03 ~ack_loss:0.03
            (mixed_specs ~messages:5 ~flows:30) );
      ( "budget",
        "533d76b6f7672449a8046c64a32f4ceb",
        fun jobs ->
          Shard.run ~seed:3 ~jobs ~cell:8 ~data_loss:0.03 ~ack_loss:0.03 ~memory_budget:4096
            (mixed_specs ~messages:5 ~flows:32) );
      ( "watchdog, storm and churn",
        "0a740cb0350a1cfed1653ebd38d5cfbc",
        fun jobs ->
          Shard.run ~seed:42 ~jobs ~cell:5 ~barrier:500 ~data_loss:0.03 ~ack_loss:0.03
            ~plans_for:storm ~memory_budget:(8 * 1024) ~watchdog:dog ~deadline:120_000
            (churn ~seed:42) );
      ( "cut by a deadline",
        "816af7ee31febf47de964eccc3179ce3",
        fun jobs ->
          Shard.run ~seed:9 ~jobs ~cell:6 ~barrier:500 ~data_loss:0.03 ~ack_loss:0.03
            ~deadline:2_500
            (mixed_specs ~messages:20 ~flows:20) );
      ( "stalled to the horizon",
        "2f5055f83f5552ed40bc37f4b1bcc93d",
        fun jobs ->
          Shard.run ~seed:13 ~jobs ~cell:6 ~barrier:500 ~memory_budget:800
            ~plans_for:(odd_cells_dark ~seed:13)
            (mixed_specs ~messages:5 ~flows:24) );
      ( "stalled to the horizon, watchdog armed",
        "709d4a7f33fa19e87be3c38c05c3e1bf",
        fun jobs ->
          Shard.run ~seed:17 ~jobs ~cell:4 ~data_loss:0.03 ~ack_loss:0.03 ~watchdog:dog
            ~plans_for:(odd_cells_dark ~seed:17)
            (mixed_specs ~messages:4 ~flows:14) );
    ]
  in
  List.iter
    (fun (name, want, run) ->
      List.iter
        (fun jobs ->
          let s = Shard.summary (run jobs) in
          Printf.printf "%s, jobs %d:\n%s%!" name jobs s;
          check Alcotest.string
            (Printf.sprintf "%s, jobs %d" name jobs)
            want
            (Digest.to_hex (Digest.string s)))
        [ 1; 2 ])
    cases

(* ------------------------------------------------------------------ *)
(* Per-flow state *)

(* Bytes per flow that 8 cells of 1,024 [shard-100k] flows (blockack,
   window 8, rto 400, two messages each) keep live, the cells built and
   seeded the way [Shard.run] builds them at seed 7: after [Cell.create]
   (endpoints and cell wiring), and after [Cell.start] (two messages in
   flight per flow, the point [Shard.run] measures [state_bytes] at).

   The ledger then builds each part of a started flow on its own, in the
   same numbers, and measures it the same way:
   - cell wiring: cells of a protocol whose endpoints are their
     callbacks, so what is left is the cell's per-flow columns and the
     callbacks' closure block;
   - sender: blockack senders with two messages in flight on one shared
     engine whose event heap was grown beforehand, so the figure holds
     the sender and its engine slot (two column entries), and not its
     timer event;
   - receiver: idle blockack receivers;
   - frames with payloads: two data frames a flow, each with its own
     32 B workload payload (the sender's outbox and the cell's flight
     ring point at the same strings);
   - link arena and engine columns: per cell, an engine and the two
     links holding 1,024 timer events and 2,048 frames in flight (one
     shared frame), so the engine's event heap and the data link's
     arena have the cell's sizes.
   The parts must add up to the [Cell.start] figure within [residual]:
   what is left is each build's fixed cost (engines, links, the frame
   pool's hits) spread over 8,192 flows. *)
let cells = 8
let per_cell = 1024
let flows = cells * per_cell

let live () =
  Ba_util.Column_pool.clear ();
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Live bytes per flow that [build] keeps, [build] called once per cell,
   less the arrays that hold what it built. *)
let per_flow (build : int -> 'a array) =
  let before = live () in
  let kept = Array.init cells build in
  let after = live () in
  ignore (Sys.opaque_identity kept);
  let holders = Array.fold_left (fun acc a -> acc + Array.length a + 1) (cells + 1) kept in
  float_of_int ((after - before - holders) * (Sys.word_size / 8)) /. float_of_int flows

let shard_config e = Registry.config ~window:8 ~rto:400 e ()

(* One spec for every flow: [Shard.run] builds its specs before it
   measures, so they are not per-flow state. *)
let build_cell protocol config =
  let spec = Fabric.spec ~config ~messages:2 protocol in
  fun ci ->
  Ba_proto.Cell.create
    ~engine_seed:(7 + (104729 * (ci + 1)))
    ~wseed:(fun i -> 7 + (7919 * ((ci * per_cell) + i + 1)))
    ~data_loss:0. ~ack_loss:0. ~data_delay:(Dist.Uniform (40, 60))
    ~ack_delay:(Dist.Uniform (40, 60)) ~lease:(1000, flows) ~sketch:true
    (Ba_proto.Cell.admission (List.init per_cell (fun _ -> spec)))

(* Endpoints that are their callbacks: a cell of these keeps only its
   own per-flow state. *)
module Bare : Ba_proto.Protocol.S = struct
  let name = "bare"

  type sender = unit -> string
  type receiver = string -> unit

  let validate = Ba_proto.Proto_config.validate
  let create_sender _ _ ~tx:_ ~next_payload = next_payload
  let create_receiver _ _ ~tx:_ ~deliver = deliver
  let sender_on_ack _ _ = ()
  let receiver_on_data _ _ = ()
  let sender_pump _ = ()
  let sender_done _ = true
  let sender_outstanding _ = 0
  let sender_retransmissions _ = 0
  let ack_wire_bytes = 0
  let lifecycle = None
  let overload = None
end

let ledger e =
  let (module P : Ba_proto.Protocol.S) = e.Registry.protocol in
  let config = shard_config e in
  let wiring = per_flow (fun ci -> [| build_cell (module Bare) config ci |]) in
  let sender =
    let engine = Ba_sim.Engine.create () in
    for _ = 1 to flows do
      Ba_sim.Engine.schedule engine ~delay:0 ignore
    done;
    Ba_sim.Engine.run engine;
    (* A shared payload and a shared supplier: two messages, then
       exhausted once, as a two-message flow's puller answers a pump. *)
    let pulls = ref 0 in
    let supply () =
      if !pulls < 2 then begin
        incr pulls;
        "p"
      end
      else begin
        pulls := 0;
        raise Ba_proto.Protocol.Exhausted
      end
    in
    per_flow (fun _ ->
        Array.init per_cell (fun _ ->
            let s = P.create_sender engine config ~tx:ignore ~next_payload:supply in
            P.sender_pump s;
            s))
  in
  let engine = Ba_sim.Engine.create () in
  let receiver =
    per_flow (fun _ ->
        Array.init per_cell (fun _ -> P.create_receiver engine config ~tx:ignore ~deliver:ignore))
  in
  let frames =
    per_flow (fun ci ->
        Array.init (2 * per_cell) (fun k ->
            let payload = Ba_proto.Workload.payload ~seed:(ci + 1) ~size:32 k in
            Ba_proto.Wire.make_data_e ~epoch:0 ~seq:(k mod 2) ~payload))
  in
  let columns =
    let frame = Ba_proto.Wire.make_data_e ~epoch:0 ~seq:0 ~payload:"p" in
    per_flow (fun _ ->
        let engine = Ba_sim.Engine.create () in
        let link () =
          Ba_channel.Link.create_tagged engine ~delay:(Dist.Uniform (40, 60)) ~deliver:(fun _ _ -> ()) ()
        in
        let data = link () and acks = link () in
        let timer = Ba_sim.Engine.handler engine ignore in
        for i = 0 to per_cell - 1 do
          Ba_sim.Engine.schedule_fn engine ~delay:400 timer i;
          Ba_channel.Link.send_tagged data i frame;
          Ba_channel.Link.send_tagged data i frame
        done;
        [| (engine, data, acks) |])
  in
  [
    ("cell wiring", wiring);
    ("sender", sender);
    ("receiver", receiver);
    ("frames with payloads", frames);
    ("link arena and engine columns", columns);
  ]

let test_cell_footprint () =
  let e = entry "blockack" in
  let config = shard_config e in
  let before = live () in
  let per_flow_now () =
    float_of_int ((live () - before) * (Sys.word_size / 8)) /. float_of_int flows
  in
  let built = Array.init cells (build_cell e.Registry.protocol config) in
  let created = per_flow_now () in
  Array.iter Ba_proto.Cell.start built;
  let started = per_flow_now () in
  ignore (Sys.opaque_identity built);
  Printf.printf "created %.1f started %.1f B/flow\n%!" created started;
  if created > 800. then Alcotest.failf "after Cell.create %.1f B/flow, want <= 800" created;
  if started > 1_260. then Alcotest.failf "after Cell.start %.1f B/flow, want <= 1260" started;
  let parts = ledger e in
  let sum = List.fold_left (fun acc (_, b) -> acc +. b) 0. parts in
  List.iter (fun (name, b) -> Printf.printf "  %-30s %7.1f B/flow\n" name b) parts;
  Printf.printf "  %-30s %7.1f B/flow (Cell.start %.1f, residual %+.1f)\n%!" "sum" sum started
    (started -. sum);
  let residual = 8. in
  if Float.abs (started -. sum) > residual then
    Alcotest.failf "ledger parts sum to %.1f B/flow, Cell.start keeps %.1f: residual over %.0f"
      sum started residual

(* [Shard.run]'s own state figure at shard-100k's size: 100,000
   two-message flows, the shape above, on one domain. It is the sum of
   each started cell's [Obj.reachable_words] beyond its specs (1,204
   B/flow on x86-64, the [Cell.start] figure above plus the few static
   blocks every cell reaches), deterministic, so the ceiling needs no
   noise headroom: its ~8% fails a flow whose flight ring is sized to
   its window (2w slots) instead of to its two messages (1,427 B/flow,
   measured as a live-words delta). *)
let test_state_at_100k_flows () =
  let ceiling = 1_300 and n = 100_000 in
  let e = entry "blockack" in
  let spec = Fabric.spec ~config:(shard_config e) ~messages:2 e.Registry.protocol in
  let r = Shard.run ~seed:11 ~jobs:1 ~measure_mem:true (List.init n (fun _ -> spec)) in
  check Alcotest.bool "completed" true r.Shard.completed;
  let per_flow = r.Shard.state_bytes / n in
  Printf.printf "state at 100k flows: %d B/flow\n%!" per_flow;
  if per_flow > ceiling then
    Alcotest.failf "Shard.run keeps %d B/flow at 100k flows, want <= %d" per_flow ceiling

(* Bytes a warm [Shard.run] allocates per flow: 16,384 two-message
   shard-100k flows on one domain, counted by the collector, not timed.
   The first run leaves its cells' columns in the column pool, so the
   measured run's cells take them instead of allocating. The figure is
   deterministic: 1,407.6 B/flow on x86-64, against 1,926.5 when every
   cell built its columns afresh; the bound fails a pool that hands
   nothing back. *)
let test_alloc_per_flow () =
  let bound = 1_450. and n = 16_384 in
  let e = entry "blockack" in
  let spec = Fabric.spec ~config:(shard_config e) ~messages:2 e.Registry.protocol in
  let specs = List.init n (fun _ -> spec) in
  let run () = Shard.run ~seed:9 ~jobs:1 specs in
  Ba_util.Column_pool.clear ();
  ignore (run ());
  (* OCaml 5 counts allocation at minor collections. *)
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  let r = run () in
  Gc.minor ();
  let per_flow = (Gc.allocated_bytes () -. a0) /. float_of_int n in
  check Alcotest.bool "completed" true r.Shard.completed;
  Printf.printf "warm Shard.run allocates %.1f B/flow\n%!" per_flow;
  if per_flow > bound then
    Alcotest.failf "a warm 16,384-flow Shard.run allocates %.1f B/flow, want <= %.0f" per_flow
      bound

(* Without capacity no cell waits on another, so [Shard.run] holds one
   cell at a time: it builds, runs and folds a cell, then drops it. The
   [plans_for] hook runs once per cell as the cell is built; here it
   records the live heap. Over 64 cells of 512 shard-100k flows the
   heap at the last build stays within one cell's footprint (a one-cell
   run's [state_bytes]) of the heap at the first. A runner that builds
   every cell first grows by 63 footprints. *)
let test_one_cell_resident () =
  let e = entry "blockack" in
  let spec = Fabric.spec ~config:(shard_config e) ~messages:2 e.Registry.protocol in
  let cell = 512 and ncells = 64 in
  let specs n = List.init n (fun _ -> spec) in
  let footprint = (Shard.run ~seed:3 ~jobs:1 ~cell ~measure_mem:true (specs cell)).Shard.state_bytes in
  let at_build = ref [] in
  let plans_for ~cell_seed:_ =
    Gc.full_major ();
    at_build := (Gc.stat ()).Gc.live_words :: !at_build;
    (Ba_channel.Fault_plan.none, Ba_channel.Fault_plan.none)
  in
  let r = Shard.run ~seed:3 ~jobs:1 ~cell ~plans_for (specs (cell * ncells)) in
  check Alcotest.bool "completed" true r.Shard.completed;
  check Alcotest.int "one build per cell" ncells (List.length !at_build);
  let last = List.hd !at_build and first = List.nth !at_build (ncells - 1) in
  let grown = (last - first) * (Sys.word_size / 8) in
  Printf.printf "live heap grew %d B over %d cell builds; one cell keeps %d B\n%!" grown ncells
    footprint;
  if grown > footprint then
    Alcotest.failf "live heap grew %d B from the first cell's build to the last, over one cell (%d B)"
      grown footprint

(* ------------------------------------------------------------------ *)
(* Determinism: jobs are scheduling, not semantics *)

type scenario = {
  sc_seed : int;
  sc_flows : int;
  sc_cell : int;
  sc_messages : int;
  sc_loss : bool;
  sc_capacity : (int * int) option;
  sc_budget : int option;
  sc_watchdog : bool;
  sc_storm : bool;  (* churn population + seed-derived storm plans *)
  sc_jobs : int;
}

let scenario_gen =
  QCheck.Gen.(
    let* sc_seed = int_range 1 1000 in
    let* sc_flows = int_range 6 30 in
    let* sc_cell = int_range 3 9 in
    let* sc_messages = int_range 3 6 in
    let* sc_loss = bool in
    let* with_cap = bool in
    let* svc = int_range 1 4 in
    let* qcap = int_range 8 40 in
    let* with_budget = bool in
    let* budget = int_range 2 20 in
    let* sc_watchdog = bool in
    let* sc_storm = bool in
    let* sc_jobs = int_range 2 5 in
    return
      {
        sc_seed;
        sc_flows;
        sc_cell;
        sc_messages;
        sc_loss;
        sc_capacity = (if with_cap then Some (svc, qcap) else None);
        sc_budget = (if with_budget then Some (budget * 1024) else None);
        sc_watchdog;
        sc_storm;
        sc_jobs;
      })

let scenario_print sc =
  Printf.sprintf
    "seed=%d flows=%d cell=%d msgs=%d loss=%b cap=%s budget=%s dog=%b storm=%b jobs=%d"
    sc.sc_seed sc.sc_flows sc.sc_cell sc.sc_messages sc.sc_loss
    (match sc.sc_capacity with
    | Some (s, q) -> Printf.sprintf "(%d,%d)" s q
    | None -> "-")
    (match sc.sc_budget with Some b -> string_of_int b | None -> "-")
    sc.sc_watchdog sc.sc_storm sc.sc_jobs

let run_scenario sc ~jobs =
  let specs =
    if sc.sc_storm then
      (* A churning population: long-lived bases plus leavers/returners,
         the soak's flow pattern at miniature scale. *)
      let e = entry "blockack-multi" in
      let config = Registry.config ~window:4 ~rto:800 e () in
      Fabric.churn ~base:2 ~churners:2 ~messages:sc.sc_messages ~payload_size:24
        ~config ~seed:sc.sc_seed e.Registry.protocol
      @ mixed_specs ~messages:sc.sc_messages ~flows:sc.sc_flows
    else mixed_specs ~messages:sc.sc_messages ~flows:sc.sc_flows
  in
  let plans_for =
    if sc.sc_storm then
      Some (fun ~cell_seed -> Chaos.plans_for Chaos.Storm ~seed:cell_seed)
    else None
  in
  let r =
    Shard.run ~seed:sc.sc_seed ~jobs ~cell:sc.sc_cell ~barrier:500
      ~data_loss:(if sc.sc_loss then 0.03 else 0.)
      ~ack_loss:(if sc.sc_loss then 0.03 else 0.)
      ?capacity:sc.sc_capacity ?plans_for ?memory_budget:sc.sc_budget
      ?watchdog:(if sc.sc_watchdog then Some Ba_proto.Watchdog.default_config else None)
      ~deadline:120_000 specs
  in
  Shard.summary r

let test_sharded_equals_unsharded =
  qcheck
    (QCheck.Test.make ~count:12
       ~name:"sharded run byte-identical to unsharded at any jobs x cell"
       (QCheck.make ~print:scenario_print scenario_gen)
       (fun sc ->
         let reference = run_scenario sc ~jobs:1 in
         let sharded = run_scenario sc ~jobs:sc.sc_jobs in
         if String.equal reference sharded then true
         else
           QCheck.Test.fail_reportf "diverged:\n--- jobs=1\n%s\n--- %s\n%s"
             reference (scenario_print sc) sharded))

let test_storm_churn_shard_sweep () =
  (* The compound incident, pinned across a job-count sweep: one
     churning population under seed-derived storm plans, watchdog armed,
     capacity leased — every job count must reproduce the reference
     summary byte for byte. *)
  let sc =
    {
      sc_seed = 42;
      sc_flows = 12;
      sc_cell = 5;
      sc_messages = 5;
      sc_loss = true;
      sc_capacity = Some (2, 32);
      sc_budget = Some (8 * 1024);
      sc_watchdog = true;
      sc_storm = true;
      sc_jobs = 1;
    }
  in
  let reference = run_scenario sc ~jobs:1 in
  List.iter
    (fun jobs ->
      check Alcotest.string (Printf.sprintf "jobs=%d" jobs) reference (run_scenario sc ~jobs))
    [ 2; 3; 7; 16 ]

(* ------------------------------------------------------------------ *)
(* One cell behind every runner: a one-cell shard run is the fabric's model. Fabric runs
   its single cell with engine seed [seed]; shard cell 0 is seeded
   [seed + 104729]. Without capacity (the one place the two differ: a
   lease versus the exact link queue) the runs agree on every summary
   field but the cell and epoch counts: their counter blocks are equal,
   and so are the extras below. Latency is compared by count and
   maximum, which are exact; the sketch's quantiles depend on insertion
   order. *)

let shard_extras (r : Shard.result) =
  let l = r.Shard.latency in
  [
    ("flows", r.Shard.flows);
    ("mem-peak", r.Shard.mem_peak_bytes);
    ("ticks", r.Shard.ticks);
    ("completed", Bool.to_int r.Shard.completed);
    ("latency-n", Qsketch.count l);
    ("latency-max", if Qsketch.count l = 0 then 0 else int_of_float (Qsketch.max l));
  ]

let fabric_extras (r : Fabric.result) =
  let lat =
    List.concat_map (fun (fl : Ba_proto.Flow.result) -> Array.to_list fl.latencies) r.Fabric.flows
  in
  [
    ("flows", List.length r.Fabric.flows);
    ("mem-peak", r.Fabric.mem_peak_bytes);
    ("ticks", r.Fabric.ticks);
    ("completed", Bool.to_int r.Fabric.completed);
    ("latency-n", List.length lat);
    ("latency-max", int_of_float (List.fold_left Float.max 0. lat));
  ]

let render block extras =
  List.map (fun k -> (Counters.name k, Counters.get block k)) Counters.all @ extras
  |> List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
  |> String.concat " "

let one_cell_agrees ~seed ~loss ?memory_budget ?watchdog ?plans_for specs =
  let loss = if loss then 0.05 else 0. in
  let s =
    Shard.run ~seed ~jobs:1 ~cell:1024 ~barrier:500 ~data_loss:loss ~ack_loss:loss ?plans_for
      ?memory_budget ?watchdog specs
  in
  let plans = Option.map (fun f -> f ~cell_seed:(seed + 104729)) plans_for in
  let f =
    Fabric.run ~seed:(seed + 104729) ~data_loss:loss ~ack_loss:loss
      ?data_plan:(Option.map fst plans) ?ack_plan:(Option.map snd plans) ?memory_budget
      ?watchdog specs
  in
  if s.Shard.counters = f.Fabric.counters && shard_extras s = fabric_extras f then Ok s
  else
    Error
      (Printf.sprintf "shard  %s\nfabric %s"
         (render s.Shard.counters (shard_extras s))
         (render f.Fabric.counters (fabric_extras f)))

let test_one_cell_shard_is_fabric =
  qcheck
    (QCheck.Test.make ~count:25 ~name:"one-cell shard run = fabric run on every summary field"
       (QCheck.make ~print:scenario_print scenario_gen)
       (fun sc ->
         let specs =
           if sc.sc_storm then
             let e = entry "blockack-multi" in
             let config = Registry.config ~window:4 ~rto:800 e () in
             Fabric.churn ~base:2 ~churners:2 ~messages:sc.sc_messages ~payload_size:24 ~config
               ~seed:sc.sc_seed e.Registry.protocol
             @ mixed_specs ~messages:sc.sc_messages ~flows:sc.sc_flows
           else mixed_specs ~messages:sc.sc_messages ~flows:sc.sc_flows
         in
         let plans_for =
           if sc.sc_storm then
             Some (fun ~cell_seed -> Chaos.plans_for Chaos.Storm ~seed:cell_seed)
           else None
         in
         match
           one_cell_agrees ~seed:sc.sc_seed ~loss:sc.sc_loss ?memory_budget:sc.sc_budget
             ?watchdog:(if sc.sc_watchdog then Some Ba_proto.Watchdog.default_config else None)
             ?plans_for specs
         with
         | Ok _ -> true
         | Error e ->
             QCheck.Test.fail_reportf
               "seed %d: %d flows of %d messages cycling blockack-multi, selective-repeat, \
                go-back-n (window 4, rto 800, 24 B payloads)%s; %s loss each way, budget %s, \
                watchdog %b; shard: one cell of 1024, barrier 500, cell seed %d\n%s"
               sc.sc_seed sc.sc_flows sc.sc_messages
               (if sc.sc_storm then
                  " after a blockack-multi churn (base 2, churners 2, window 4, rto 800), \
                   storm plans"
                else "")
               (if sc.sc_loss then "5%" else "no")
               (match sc.sc_budget with Some b -> string_of_int b | None -> "none")
               sc.sc_watchdog (sc.sc_seed + 104729) e))

let test_one_cell_shard_resyncs_like_fabric () =
  (* A data-link outage stalls every flow long enough for the watchdog to
     resync them through the crash/restart path; both runners must take
     it identically. *)
  let outage = Ba_channel.Fault_plan.make ~outages:[ { from_tick = 300; until_tick = 6_000 } ] () in
  let watchdog = { Ba_proto.Watchdog.default_config with check_interval = 500 } in
  match
    one_cell_agrees ~seed:7 ~loss:true ~watchdog
      ~plans_for:(fun ~cell_seed:_ -> (outage, Ba_channel.Fault_plan.none))
      (mixed_specs ~messages:20 ~flows:6)
  with
  | Ok s ->
      check Alcotest.bool "the watchdog resynced" true
        (Counters.get s.Shard.counters Watchdog_resyncs > 0)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Admission *)

(* Admission by its definition, quadratic per prefix: the peak is the
   largest total cost of the flows active at some flow's start, and the
   admitted prefix is grown one flow at a time. *)
let reference_admission ~budget (specs : Fabric.spec list) =
  let cost s ~clamp = Ba_proto.Cell.flow_cost s ~clamp in
  let active t (s : Fabric.spec) =
    s.start_at <= t && match s.stop_at with None -> true | Some d -> t < d
  in
  let peak ~clamp specs =
    List.fold_left
      (fun acc (s : Fabric.spec) ->
        max acc
          (List.fold_left
             (fun a s' -> if active s.start_at s' then a + cost s' ~clamp else a)
             0 specs))
      0 specs
  in
  if peak ~clamp:1 specs <= budget then
    let max_w = List.fold_left (fun acc (s : Fabric.spec) -> max acc s.config.window) 1 specs in
    let rec fit c = if c > 1 && peak ~clamp:c specs > budget then fit (c - 1) else c in
    let c = fit max_w in
    (List.length specs, 0, if c < max_w then Some c else None)
  else
    let rec grow k =
      if peak ~clamp:1 (List.filteri (fun i _ -> i <= k) specs) > budget then k else grow (k + 1)
    in
    let k = grow 0 in
    (k, List.length specs - k, Some 1)

let admission_spec_gen =
  QCheck.Gen.(
    let* window = int_range 1 8
    and* payload_size = int_bound 64
    and* start_at = int_bound 20
    and* life = opt (int_range 1 20) in
    let config = Registry.config ~window ~rto:800 (entry "blockack-multi") () in
    return
      (Fabric.spec ~config ~payload_size ~start_at
         ?stop_at:(Option.map (fun l -> start_at + l) life)
         (entry "blockack-multi").Registry.protocol))

let admission_matches_definition =
  QCheck.Test.make ~name:"admission equals its quadratic definition" ~count:1000
    (QCheck.make
       ~print:(fun (specs, budget) ->
         Printf.sprintf "budget %d: %s" budget
           (String.concat "; "
              (List.map
                 (fun (s : Fabric.spec) ->
                   Printf.sprintf "w%d p%d [%d,%s)" s.config.window s.payload_size s.start_at
                     (match s.stop_at with Some d -> string_of_int d | None -> "-"))
                 specs)))
       QCheck.Gen.(pair (list_size (int_range 1 12) admission_spec_gen) (int_range 1 3000)))
    (fun (specs, budget) ->
      match Ba_proto.Cell.admission ~budget specs with
      | exception Invalid_argument _ ->
          Ba_proto.Cell.flow_cost (List.hd specs) ~clamp:1 > budget
      | a ->
          let got = (List.length a.admitted, a.refused, a.clamp) in
          got = reference_admission ~budget specs
          && List.for_all2 ( == ) a.admitted (List.filteri (fun i _ -> i < List.length a.admitted) specs))

(* 16 cells of 1,024 flows under a budget that refuses in every cell:
   admission bisects each cell's prefix with a sweep per probe, where
   growing the prefix one flow at a time with a quadratic peak took
   about 10⁹ steps a cell. Flows start in 64 waves 25 ticks apart and
   a third depart 1,000 ticks after they start, so the peak is not the
   plain sum. The refused count was checked against the definition
   (the quadratic peak, the prefix grown one flow at a time). *)
let test_refusing_budget_at_16k_flows () =
  let e = entry "blockack-multi" in
  let config = Registry.config ~window:8 ~rto:400 e () in
  let specs =
    List.init 16_384 (fun i ->
        Fabric.spec ~config ~messages:2 ~start_at:(25 * (i mod 64))
          ?stop_at:(if i mod 3 = 0 then Some ((25 * (i mod 64)) + 1_000) else None)
          e.Registry.protocol)
  in
  let r = Shard.run ~seed:5 ~jobs:1 ~memory_budget:600_000 specs in
  let n = Counters.get r.Shard.counters in
  check Alcotest.int "refused" 5_616 (n Refused);
  check Alcotest.int "every cell clamped" 16 (n Clamped_cells);
  check Alcotest.int "admitted flows all end" (16_384 - 5_616) (n Completed_flows + n Departed)

(* ------------------------------------------------------------------ *)
(* Column pool: value-transparent *)

(* A run shape: a shard run of mixed protocols, with or without loss and
   a capacity lease, plus a one-flow harness run and a small fabric run
   of the same seed. *)
type shape = { seed : int; flows : int; cell : int; messages : int; lossy : bool; leased : bool }

let shape_gen =
  QCheck.Gen.(
    map
      (fun ((seed, flows, cell), (messages, lossy, leased)) ->
        { seed; flows; cell; messages; lossy; leased })
      (pair
         (triple (int_bound 10_000) (int_range 1 200) (int_range 1 70))
         (triple (int_range 1 5) bool bool)))

let shape_print s =
  Printf.sprintf "seed=%d flows=%d cell=%d messages=%d lossy=%b leased=%b" s.seed s.flows s.cell
    s.messages s.lossy s.leased

(* Everything the three runners report for [s]: results, summaries and
   state figures, as one digest. *)
let shape_digest s =
  let loss = if s.lossy then 0.05 else 0. in
  let specs = mixed_specs ~messages:s.messages ~flows:s.flows in
  let r =
    Shard.run ~seed:s.seed ~jobs:1 ~cell:s.cell ~data_loss:loss ~ack_loss:loss
      ?capacity:(if s.leased then Some (3, 32) else None)
      ~measure_mem:true specs
  in
  let h =
    Ba_proto.Harness.run (entry "blockack").Registry.protocol ~seed:s.seed
      ~messages:(20 * s.messages) ~data_loss:loss ~ack_loss:loss ()
  in
  let f =
    Fabric.run ~seed:s.seed ~data_loss:loss ~ack_loss:loss ~data_bottleneck:(3, 16)
      (mixed_specs ~messages:s.messages ~flows:(min s.flows 9))
  in
  Digest.to_hex
    (Digest.string
       (Shard.summary r ^ string_of_int r.Shard.state_bytes
       ^ Marshal.to_string (r, h, f) [ Marshal.No_sharing ]))

(* Taking a column from the pool is building it afresh: shape [a] run
   after a different shape [b] has left its own, differently sized
   columns in the pool digests the same as [a] run first, and as [a] in
   a fresh domain, whose pool starts empty. *)
let pool_is_transparent =
  QCheck.Test.make ~name:"a pooled run equals a fresh one" ~count:20
    (QCheck.make
       ~print:(fun (a, b) -> shape_print a ^ " / " ^ shape_print b)
       (QCheck.Gen.pair shape_gen shape_gen))
    (fun (a, b) ->
      let first = shape_digest a in
      ignore (shape_digest b);
      let again = shape_digest a in
      let cold = Domain.join (Domain.spawn (fun () -> shape_digest a)) in
      (first = again && first = cold)
      || QCheck.Test.fail_reportf "first %s, after the other shape %s, in a fresh domain %s" first
           again cold)

let () =
  Alcotest.run "shard"
    [
      ( "model",
        [
          Alcotest.test_case "clean run completes" `Quick test_clean_run_completes;
          Alcotest.test_case "measured run fills state" `Quick test_measured_run_fills_state_bytes;
          Alcotest.test_case "capacity lease run completes" `Quick
            test_capacity_lease_run_completes;
          Alcotest.test_case "capacity needs positive members" `Quick
            test_capacity_needs_positive_members;
          Alcotest.test_case "budget admission is cell-local" `Quick
            test_budget_admission_is_cell_local;
          Alcotest.test_case "cell footprint" `Quick test_cell_footprint;
          Alcotest.test_case "state at 100k flows" `Quick test_state_at_100k_flows;
          Alcotest.test_case "one cell resident at a time" `Quick test_one_cell_resident;
          Alcotest.test_case "allocation per flow, warm" `Quick test_alloc_per_flow;
          Alcotest.test_case "summary digests at 4,096 flows" `Quick test_summary_digests;
          Alcotest.test_case "pinned grid without capacity" `Quick test_pinned_grid;
        ] );
      ( "determinism",
        [
          test_sharded_equals_unsharded;
          Alcotest.test_case "storm churn shard sweep" `Quick
            test_storm_churn_shard_sweep;
        ] );
      ( "admission",
        [
          qcheck admission_matches_definition;
          Alcotest.test_case "refusing budget at 16,384 flows" `Quick
            test_refusing_budget_at_16k_flows;
        ] );
      ("column pool", [ qcheck pool_is_transparent ]);
      ( "one cell",
        [
          test_one_cell_shard_is_fabric;
          Alcotest.test_case "watchdog resync path" `Quick
            test_one_cell_shard_resyncs_like_fabric;
        ] );
    ]
