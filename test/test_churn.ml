(* Flow-lifecycle (churn) suite, also wired to the `churn-smoke` alias:
   departures on a stop_at schedule, interval-aware admission reclaiming
   departed reservations, the seed-derived churn generator, and the
   churn + storm composition the soak harness drives. *)

let check = Alcotest.check

module Fabric = Ba_proto.Fabric
module Harness = Ba_proto.Harness
module Chaos = Ba_verify.Chaos
module Soak = Ba_verify.Soak

let proto = Blockack.Protocols.multi

(* One flow's admission charge under the default config: 2 * window *
   payload_size = 2 * 16 * 32 bytes (retransmit buffer + reassembly). *)
let flow_cost = 2 * 16 * 32

let test_stop_at_validation () =
  Alcotest.check_raises "stop_at must be > start_at"
    (Invalid_argument "Fabric.run: stop_at must be > start_at") (fun () ->
      ignore (Fabric.run [ Fabric.spec ~start_at:100 ~stop_at:100 proto ]));
  Alcotest.check_raises "churn base must be >= 0"
    (Invalid_argument "Fabric.churn: base must be >= 0") (fun () ->
      ignore (Fabric.churn ~base:(-1) ~seed:1 proto))

let test_departure_frees_slot_and_finishes () =
  (* A flow with far more work than its tenancy allows departs on
     schedule; the run still counts as completed (departure is a normal
     end of life) and the departed flow's verdict is frozen mid-transfer. *)
  let r =
    Fabric.run
      [ Fabric.spec ~messages:500 ~stop_at:1500 proto; Fabric.spec ~messages:20 proto ]
  in
  check Alcotest.int "one departure" 1 (Ba_util.Counters.get r.Fabric.counters Departed);
  check Alcotest.bool "run completed" true r.Fabric.completed;
  let departed = List.hd r.Fabric.flows in
  check Alcotest.bool "departed flow did not finish its offer" false departed.Harness.completed;
  check Alcotest.bool "departed flow delivered something first" true (departed.Harness.delivered > 0);
  let survivor = List.nth r.Fabric.flows 1 in
  check Alcotest.bool "survivor finished" true survivor.Harness.completed;
  check Alcotest.int "survivor delivered everything" 20 survivor.Harness.delivered

let test_departure_reclaims_budget () =
  (* The regression at the heart of interval-aware admission: a budget
     that fits ONE flow's reservation. With A's [stop_at] before C's
     arrival their intervals never overlap, so both are admitted
     unclamped into the same reservation; drop the stop_at and the
     lifetime-sum peak doubles, forcing admission to degrade. *)
  let a ~stop_at = Fabric.spec ~messages:500 ?stop_at proto in
  let c = Fabric.spec ~messages:20 ~start_at:2000 proto in
  let reclaimed = Fabric.run ~memory_budget:flow_cost [ a ~stop_at:(Some 1500); c ] in
  check Alcotest.int "both admitted" 2 (List.length reclaimed.Fabric.flows);
  check Alcotest.int "none refused" 0 (Ba_util.Counters.get reclaimed.Fabric.counters Refused);
  check Alcotest.bool "no clamp" true (reclaimed.Fabric.clamped_window = None);
  check Alcotest.bool "budget held" true (reclaimed.Fabric.mem_peak_bytes <= flow_cost);
  let overlapping = Fabric.run ~memory_budget:flow_cost [ a ~stop_at:None; c ] in
  check Alcotest.bool "without the departure, admission must degrade" true
    (overlapping.Fabric.clamped_window <> None
    || Ba_util.Counters.get overlapping.Fabric.counters Refused > 0)

let test_churn_generator_shape () =
  let base = 2 and churners = 3 in
  let specs = Fabric.churn ~base ~churners ~seed:7 proto in
  check Alcotest.int "base + leaver/returner pairs" (base + (2 * churners))
    (List.length specs);
  let baseline = List.filteri (fun i _ -> i < base) specs in
  List.iter
    (fun (s : Fabric.spec) ->
      check Alcotest.bool "baseline spans the horizon" true
        (s.Fabric.start_at = 0 && s.Fabric.stop_at = None))
    baseline;
  let tail = List.filteri (fun i _ -> i >= base) specs in
  List.iteri
    (fun k (s : Fabric.spec) ->
      if k mod 2 = 0 then begin
        (* leaver: early arrival, scheduled departure, outsized offer *)
        check Alcotest.bool "leaver arrives early" true (s.Fabric.start_at <= 400);
        match s.Fabric.stop_at with
        | None -> Alcotest.fail "leaver must have a stop_at"
        | Some d -> check Alcotest.bool "departure after arrival" true (d > s.Fabric.start_at)
      end
      else begin
        (* returner: arrives after its leaver departed, runs to completion *)
        check Alcotest.bool "returner has no stop_at" true (s.Fabric.stop_at = None);
        match (List.nth tail (k - 1)).Fabric.stop_at with
        | None -> Alcotest.fail "paired leaver must have a stop_at"
        | Some d -> check Alcotest.bool "returner arrives after the departure" true (s.Fabric.start_at > d)
      end)
    tail;
  (* Compare schedules only: a spec carries the protocol's closures,
     which polymorphic equality cannot look through. *)
  let shape =
    List.map (fun (s : Fabric.spec) -> (s.Fabric.start_at, s.Fabric.stop_at, s.Fabric.messages))
  in
  check Alcotest.bool "schedule is a pure function of seed" true
    (shape (Fabric.churn ~base ~churners ~seed:7 proto) = shape specs);
  check Alcotest.bool "different seeds differ" true
    (shape (Fabric.churn ~base ~churners ~seed:8 proto) <> shape specs)

let test_churning_run_deterministic () =
  let run () = Fabric.run ~seed:11 (Fabric.churn ~churners:2 ~messages:20 ~seed:11 proto) in
  let a = run () and b = run () in
  check Alcotest.int "same ticks" a.Fabric.ticks b.Fabric.ticks;
  check Alcotest.bool "same counters, departures included" true
    (a.Fabric.counters = b.Fabric.counters);
  check Alcotest.bool "same per-flow verdicts" true (a.Fabric.flows = b.Fabric.flows)

let test_churn_under_storm_stays_safe () =
  (* The soak harness's round: a churning population with the full storm
     composition (bursty channels + squeeze + crash plan on flow 0)
     admitted under a budget below the lifetime sum, watchdog armed.
     Safety and the memory guarantee must hold; churners still depart.
     The four rounds (seeds 42-45) go through the soak's fold, whose
     verdict must pass as well. *)
  let specs_at seed =
    Fabric.churn ~churners:2 ~messages:20 ~config:Chaos.robust_config ~seed proto
  in
  let round_at i =
    let seed = 42 + i in
    Soak.round ~fault:Chaos.Storm ~base:2 ~churn_from:2 ~seed (specs_at seed)
  in
  let check_round i (rd : Soak.round) =
    let specs = specs_at (42 + i) in
    let r = rd.Soak.result in
    let check_at what = check Alcotest.bool (Printf.sprintf "seed %d: %s" (42 + i) what) true in
    check_at "budget below the lifetime sum" (rd.Soak.budget < Fabric.lifetime_cost specs);
    check_at "everyone admitted into reclaimed capacity"
      (List.length r.Fabric.flows = List.length specs);
    check_at "churners departed" (Ba_util.Counters.get r.Fabric.counters Departed = 2);
    check_at "run completed" r.Fabric.completed;
    check_at "memory guarantee held through the storm" (r.Fabric.mem_peak_bytes <= rd.Soak.budget);
    check_at "every flow stayed safe" (List.for_all Chaos.safe r.Fabric.flows)
  in
  let report = Soak.fold ~on_round:check_round ~jobs:1 ~rounds:4 round_at in
  check Alcotest.bool "soak verdict passes" true report.Soak.pass

let () =
  Alcotest.run "churn"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "stop_at and churn validation" `Quick test_stop_at_validation;
          Alcotest.test_case "departure is a normal end of life" `Quick
            test_departure_frees_slot_and_finishes;
          Alcotest.test_case "departure reclaims its budget reservation" `Quick
            test_departure_reclaims_budget;
          Alcotest.test_case "churn generator shape" `Quick test_churn_generator_shape;
          Alcotest.test_case "churning run is deterministic" `Quick
            test_churning_run_deterministic;
          Alcotest.test_case "churn under storm stays safe" `Quick
            test_churn_under_storm_stays_safe;
        ] );
    ]
