module Fabric = Ba_proto.Fabric
module Cell = Ba_proto.Cell
module Harness = Ba_proto.Harness
module Qsketch = Ba_util.Qsketch

type round = {
  result : Fabric.result;
  budget : int;
  safe : bool;
  base_goodput : float list;
  returner_goodput : float list;
}

let watchdog = { Ba_proto.Watchdog.default_config with Ba_proto.Watchdog.check_interval = 500 }

let round ?data_loss ?ack_loss ?delay ?capacity ?budget ?(crashes = []) ?fault ~base
    ~churn_from ~seed specs =
  (* Three quarters of the lifetime sum: admission must reclaim departed
     reservations or clamp, yet every flow still fits. *)
  let budget =
    match budget with Some b -> b | None -> Fabric.lifetime_cost specs * 3 / 4
  in
  let incident = Option.map (fun fault -> Chaos.incident fault ~seed) fault in
  let specs, bottleneck =
    match Option.bind incident (fun i -> i.Chaos.squeeze) with
    | None -> (specs, capacity)
    | Some sq ->
        ( List.map
            (fun (s : Fabric.spec) ->
              { s with Fabric.config = fst (Chaos.apply_squeeze sq s.Fabric.config) })
            specs,
          Some (sq.Chaos.service_time, sq.Chaos.queue_capacity) )
  in
  let on_flows _ cell =
    List.iter
      (fun (i, plan) -> if i < Cell.flows cell then Cell.schedule_crashes cell i plan)
      crashes;
    Option.iter (fun i -> Cell.schedule_crashes cell 0 i.Chaos.crash_plan) incident
  in
  let result =
    Fabric.run ~seed ?data_loss ?ack_loss ?data_delay:delay ?ack_delay:delay
      ?data_bottleneck:bottleneck
      ?data_plan:(Option.map (fun i -> i.Chaos.data_plan) incident)
      ?ack_plan:(Option.map (fun i -> i.Chaos.ack_plan) incident)
      ~memory_budget:budget ~watchdog ~on_flows specs
  in
  let goodput keep =
    List.filteri (fun i _ -> keep i) result.Fabric.flows
    |> List.map (fun (f : Harness.result) -> f.Harness.goodput)
  in
  {
    result;
    budget;
    safe = List.for_all Chaos.safe result.Fabric.flows;
    base_goodput = goodput (fun i -> i < base);
    returner_goodput = goodput (fun i -> i >= churn_from && (i - churn_from) mod 2 = 1);
  }

let goodput_floor = 0.5

type report = {
  budget : int;
  peak : int;
  over_budget : int;
  counters : Ba_util.Counters.t;
  worst_ticks : int;
  unsafe_rounds : int;
  stuck_rounds : int;
  ratio : float option;
  sketch : Qsketch.t;
  nodes_at_check : int;
  pass : bool;
}

let fold ~on_round ~jobs ~rounds run =
  let sketch = Qsketch.create () and counters = Ba_util.Counters.create () in
  let budget = ref 0
  and peak = ref 0
  and over_budget = ref 0
  and worst_ticks = ref 0
  and unsafe_rounds = ref 0
  and stuck_rounds = ref 0
  and base_sum = ref 0.
  and base_n = ref 0
  and returner_sum = ref 0.
  and returner_n = ref 0
  and nodes_at_check = ref 0 in
  (* Cohort goodput accumulates flow by flow across rounds, so the ratio
     is over every cohort flow of the whole soak, not a mean of means. *)
  let add sum n g =
    sum := !sum +. g;
    incr n
  in
  let fold_round i (rd : round) =
    let r = rd.result in
    if not rd.safe then incr unsafe_rounds;
    if not r.Fabric.completed then incr stuck_rounds;
    budget := max !budget rd.budget;
    peak := max !peak r.Fabric.mem_peak_bytes;
    if r.Fabric.mem_peak_bytes > rd.budget then incr over_budget;
    Ba_util.Counters.merge_into counters r.Fabric.counters;
    if r.Fabric.completed then worst_ticks := max !worst_ticks r.Fabric.ticks;
    List.iter (add base_sum base_n) rd.base_goodput;
    List.iter (add returner_sum returner_n) rd.returner_goodput;
    List.iter
      (fun (f : Harness.result) -> Array.iter (Qsketch.add sketch) f.Harness.latencies)
      r.Fabric.flows;
    if i = min 9 (rounds - 1) then nodes_at_check := Qsketch.nodes sketch;
    on_round i rd
  in
  (* Rounds stream through the shared pool in bounded chunks; every
     round's full result dies with its chunk. *)
  let chunk = jobs * 4 in
  let rec go next =
    if next < rounds then begin
      let n = min chunk (rounds - next) in
      let results =
        Ba_parallel.Pool.map_chunks ~jobs ~chunk:1 run (List.init n (fun i -> next + i))
      in
      List.iteri (fun i rd -> fold_round (next + i) rd) results;
      go (next + n)
    end
  in
  go 0;
  let ratio =
    if !base_n = 0 || !returner_n = 0 then None
    else begin
      let base = !base_sum /. float_of_int !base_n in
      let returner = !returner_sum /. float_of_int !returner_n in
      if base <= 0. then None else Some (returner /. base)
    end
  in
  {
    budget = !budget;
    peak = !peak;
    over_budget = !over_budget;
    counters;
    worst_ticks = !worst_ticks;
    unsafe_rounds = !unsafe_rounds;
    stuck_rounds = !stuck_rounds;
    ratio;
    sketch;
    nodes_at_check = !nodes_at_check;
    pass =
      !unsafe_rounds = 0 && !stuck_rounds = 0 && !over_budget = 0
      && (match ratio with None -> true | Some r -> r >= goodput_floor)
      && abs (Qsketch.nodes sketch - !nodes_at_check) <= 1;
  }
