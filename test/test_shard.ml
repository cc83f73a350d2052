(* Sharded-fabric tests (also wired to the `shard-smoke` alias): the
   scale runner must be a pure function of the model parameters —
   [shards] and [jobs] are scheduling knobs, so a sharded run is
   byte-identical to the unsharded ([shards = 1], [jobs = 1]) run for
   any shard count and any job count, including under storm churn — and
   the cell-local admission/lease machinery must keep its Fabric
   semantics (budgets honoured, capacity-limited runs complete). *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Shard = Ba_proto.Shard
module Fabric = Ba_proto.Fabric
module Chaos = Ba_verify.Chaos
module Registry = Ba_registry.Registry
module Dist = Ba_channel.Dist

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
  let r = Shard.run ~seed:7 ~jobs:1 ~shards:1 ~cell:8 specs in
  check Alcotest.bool "completed" true r.Shard.completed;
  check Alcotest.int "cells" 6 r.Shard.cells;
  check Alcotest.int "flows" 48 r.Shard.flows;
  check Alcotest.int "all delivered" r.Shard.messages r.Shard.delivered;
  check Alcotest.int "no duplicates" 0 r.Shard.duplicates;
  check Alcotest.int "no corruption" 0 r.Shard.corrupted;
  check Alcotest.int "nothing refused" 0 r.Shard.refused

let test_capacity_lease_run_completes () =
  (* A tight shared bottleneck realised as per-cell leases: the run must
     still complete, and the lease layer (not the per-cell links) must
     be doing the queueing. *)
  let specs = mixed_specs ~messages:5 ~flows:24 in
  let r = Shard.run ~seed:11 ~jobs:1 ~shards:1 ~cell:6 ~capacity:(2, 64) specs in
  check Alcotest.bool "completed under lease" true r.Shard.completed;
  check Alcotest.int "all delivered" r.Shard.messages r.Shard.delivered

let test_budget_admission_is_cell_local () =
  (* A budget far below the unclamped demand: every cell must degrade
     (clamp or refuse) using only its own share, and the sampled model
     memory must respect the global budget. *)
  let specs = mixed_specs ~messages:5 ~flows:32 in
  let budget = 4 * 1024 in
  let r = Shard.run ~seed:3 ~jobs:1 ~shards:1 ~cell:8 ~memory_budget:budget specs in
  check Alcotest.bool "degraded somewhere" true
    (r.Shard.clamped_cells > 0 || r.Shard.refused > 0);
  check Alcotest.bool "sampled peak within budget" true (r.Shard.mem_peak_bytes <= budget)

(* ------------------------------------------------------------------ *)
(* Determinism: shards/jobs are scheduling, not semantics *)

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
  sc_shards : int;
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
    let* sc_shards = int_range 2 5 in
    let* sc_jobs = int_range 2 4 in
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
        sc_shards;
        sc_jobs;
      })

let scenario_print sc =
  Printf.sprintf
    "seed=%d flows=%d cell=%d msgs=%d loss=%b cap=%s budget=%s dog=%b storm=%b \
     shards=%d jobs=%d"
    sc.sc_seed sc.sc_flows sc.sc_cell sc.sc_messages sc.sc_loss
    (match sc.sc_capacity with
    | Some (s, q) -> Printf.sprintf "(%d,%d)" s q
    | None -> "-")
    (match sc.sc_budget with Some b -> string_of_int b | None -> "-")
    sc.sc_watchdog sc.sc_storm sc.sc_shards sc.sc_jobs

let run_scenario sc ~shards ~jobs =
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
    Shard.run ~seed:sc.sc_seed ~jobs ~shards ~cell:sc.sc_cell ~barrier:500
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
       ~name:"sharded run byte-identical to unsharded at any shards x jobs"
       (QCheck.make ~print:scenario_print scenario_gen)
       (fun sc ->
         let reference = run_scenario sc ~shards:1 ~jobs:1 in
         let sharded = run_scenario sc ~shards:sc.sc_shards ~jobs:sc.sc_jobs in
         if String.equal reference sharded then true
         else
           QCheck.Test.fail_reportf "diverged:\n--- shards=1 jobs=1\n%s\n--- %s\n%s"
             reference (scenario_print sc) sharded))

let test_storm_churn_shard_sweep () =
  (* The compound incident, pinned across a shard-count sweep: one
     churning population under seed-derived storm plans, watchdog armed,
     capacity leased — every shard count and job count must reproduce
     the reference summary byte for byte. *)
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
      sc_shards = 1;
      sc_jobs = 1;
    }
  in
  let reference = run_scenario sc ~shards:1 ~jobs:1 in
  List.iter
    (fun (shards, jobs) ->
      check Alcotest.string
        (Printf.sprintf "shards=%d jobs=%d" shards jobs)
        reference
        (run_scenario sc ~shards ~jobs))
    [ (2, 1); (3, 4); (7, 2); (16, 3) ]

(* ------------------------------------------------------------------ *)
(* One cell behind every runner: a one-cell shard run is the fabric's model. Fabric runs
   its single cell with engine seed [seed]; shard cell 0 is seeded
   [seed + 104729]. Without capacity (the one place the two differ: a
   lease versus the exact link queue) the runs agree on every summary
   field but the cell and epoch counts. Latency is compared by count and
   maximum, which are exact; the sketch's quantiles depend on insertion
   order. *)

let shard_digest (r : Shard.result) =
  [
    r.Shard.flows; r.Shard.messages; r.Shard.delivered; r.Shard.duplicates; r.Shard.misordered;
    r.Shard.corrupted; r.Shard.completed_flows; r.Shard.departed; r.Shard.refused;
    r.Shard.clamped_cells; r.Shard.data_sent; r.Shard.acks_sent; r.Shard.retransmissions;
    r.Shard.pressure_drops; r.Shard.lease_drops; r.Shard.lease_rebalances;
    r.Shard.quarantine_events; r.Shard.watchdog_resyncs; r.Shard.quarantined;
    r.Shard.mem_peak_bytes; r.Shard.ticks; Bool.to_int r.Shard.completed;
    Ba_util.Qsketch.count r.Shard.latency;
    (if Ba_util.Qsketch.count r.Shard.latency = 0 then 0
     else int_of_float (Ba_util.Qsketch.max r.Shard.latency));
  ]

let fabric_digest (r : Fabric.result) =
  let sum f = List.fold_left (fun a (fl : Ba_proto.Flow.result) -> a + f fl) 0 r.Fabric.flows in
  let lat = List.concat_map (fun (fl : Ba_proto.Flow.result) -> fl.latencies) r.Fabric.flows in
  [
    r.Fabric.admitted; sum (fun f -> f.messages); sum (fun f -> f.delivered);
    sum (fun f -> f.duplicates); sum (fun f -> f.misordered); sum (fun f -> f.corrupted);
    sum (fun f -> Bool.to_int f.completed); r.Fabric.departed; r.Fabric.refused;
    Bool.to_int (r.Fabric.clamped_window <> None); sum (fun f -> f.data_sent);
    sum (fun f -> f.acks_sent); sum (fun f -> f.retransmissions);
    sum (fun f -> f.pressure_drops); 0; 0; r.Fabric.quarantine_events;
    r.Fabric.watchdog_resyncs; r.Fabric.quarantined; r.Fabric.mem_peak_bytes; r.Fabric.ticks;
    Bool.to_int r.Fabric.completed; List.length lat;
    int_of_float (List.fold_left Float.max 0. lat);
  ]

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
  if shard_digest s = fabric_digest f then Ok s
  else
    Error
      (Printf.sprintf "shard  %s\nfabric %s"
         (String.concat " " (List.map string_of_int (shard_digest s)))
         (String.concat " " (List.map string_of_int (fabric_digest f))))

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
         | Error e -> QCheck.Test.fail_report e))

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
  | Ok s -> check Alcotest.bool "the watchdog resynced" true (s.Shard.watchdog_resyncs > 0)
  | Error e -> Alcotest.fail e

let () =
  Alcotest.run "shard"
    [
      ( "model",
        [
          Alcotest.test_case "clean run completes" `Quick test_clean_run_completes;
          Alcotest.test_case "capacity lease run completes" `Quick
            test_capacity_lease_run_completes;
          Alcotest.test_case "budget admission is cell-local" `Quick
            test_budget_admission_is_cell_local;
        ] );
      ( "determinism",
        [
          test_sharded_equals_unsharded;
          Alcotest.test_case "storm churn shard sweep" `Quick
            test_storm_churn_shard_sweep;
        ] );
      ( "one cell",
        [
          test_one_cell_shard_is_fabric;
          Alcotest.test_case "watchdog resync path" `Quick
            test_one_cell_shard_resyncs_like_fabric;
        ] );
    ]
