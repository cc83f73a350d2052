(* N connections multiplexed over one shared data link and one shared
   ack link: admission control plus one Cell. *)

type spec = Cell.spec = {
  protocol : Protocol.t;
  config : Proto_config.t;
  messages : int;
  payload_size : int;
  start_at : int;
  stop_at : int option;
}

let spec = Cell.spec

type link_totals = { sent : int; queue_dropped : int }

type result = {
  ticks : int;
  completed : bool;
  flows : Flow.result list;
  aggregate_goodput : float;
  fairness : float;
  counters : Ba_util.Counters.t;
  data_link : Ba_util.Counters.t;
  ack_link : Ba_util.Counters.t;
  clamped_window : int option;
  mem_peak_bytes : int;
  data_stats : link_totals;
  ack_stats : link_totals;
}

(* Jain's fairness index: (sum x)^2 / (n * sum x^2), 1.0 = perfectly even,
   1/n = one flow hoards everything. Defined as 1.0 for degenerate input
   (no flows, or nothing delivered anywhere). *)
let jain = function
  | [] -> 1.0
  | xs ->
      let sum = List.fold_left ( +. ) 0. xs in
      let sq = List.fold_left (fun acc x -> acc +. (x *. x)) 0. xs in
      if sq = 0. then 1.0
      else sum *. sum /. (float_of_int (List.length xs) *. sq)

(* Admission control plus one cell holding every flow. The shared data
   link keeps its exact bottleneck queue: with one cell there is nothing
   to lease between. *)
let run ?(seed = 42) ?(data_loss = 0.) ?(ack_loss = 0.)
    ?(data_delay = Ba_channel.Dist.Uniform (40, 60))
    ?(ack_delay = Ba_channel.Dist.Uniform (40, 60)) ?data_bottleneck ?data_plan ?ack_plan
    ?deadline ?memory_budget ?watchdog ?on_flows specs =
  Cell.validate ~who:"Fabric.run" ?memory_budget specs;
  let cell =
    Cell.create ~engine_seed:seed
      ~wseed:(fun i -> seed + (7919 * (i + 1)))
      ~data_loss ~ack_loss ~data_delay ~ack_delay ?data_bottleneck ?data_plan ?ack_plan
      ?watchdog
      (Cell.admission ?budget:memory_budget specs)
  in
  let engine = Cell.engine cell in
  Option.iter (fun g -> g engine cell) on_flows;
  Cell.start cell;
  Ba_sim.Engine.run ~until:(Option.value deadline ~default:(Cell.deadline cell)) engine;
  Cell.sample_mem cell;
  let ticks = Ba_sim.Engine.now engine in
  let n = Cell.flows cell in
  let flows = List.init n (Cell.flow_result cell) in
  let counters = Cell.counters cell in
  let data_link = Ba_channel.Link.counters (Cell.data_link cell)
  and ack_link = Ba_channel.Link.counters (Cell.ack_link cell) in
  let totals b =
    { sent = Ba_util.Counters.get b Offered; queue_dropped = Ba_util.Counters.get b Queue_dropped }
  in
  (* A scheduled departure is a normal end of life: completion means
     every flow either finished or left on schedule. *)
  let completed =
    List.for_all Fun.id (List.mapi (fun i r -> Cell.departed cell i || r.Flow.completed) flows)
  in
  (* Every flow's verdict is read, so the cell's columns can go. *)
  Cell.retire cell;
  {
    ticks;
    completed;
    flows;
    aggregate_goodput =
      (if ticks = 0 then 0.
       else float_of_int (Ba_util.Counters.get counters Delivered) *. 1000. /. float_of_int ticks);
    fairness = jain (List.map (fun r -> r.Flow.goodput) flows);
    counters;
    data_link;
    ack_link;
    clamped_window = Cell.clamp cell;
    mem_peak_bytes = Cell.mem_peak cell;
    data_stats = totals data_link;
    ack_stats = totals ack_link;
  }

let lifetime_cost specs = List.fold_left (fun a s -> a + Cell.flow_cost s ~clamp:max_int) 0 specs

(* Seed-derived churn schedule: [base] flows span the whole horizon and
   carry the pre/post-churn goodput baseline; each churner contributes a
   departing flow (arrives early, offered enough work to outlast its
   departure tick, so closure always reclaims a live reservation) and a
   returning flow that arrives into the reclaimed capacity after the
   departure and runs to completion. *)
let churn ?(base = 2) ?(churners = 2) ?(messages = 40) ?(payload_size = 32)
    ?(config = Proto_config.default) ~seed protocol =
  if base < 0 then invalid_arg "Fabric.churn: base must be >= 0";
  if churners < 0 then invalid_arg "Fabric.churn: churners must be >= 0";
  let rng = Ba_util.Rng.create (0x5eed + (31 * seed)) in
  let mk ?start_at ?stop_at m = spec ~config ~messages:m ~payload_size ?start_at ?stop_at protocol in
  let rec bases k acc = if k = 0 then List.rev acc else bases (k - 1) (mk messages :: acc) in
  (* Explicit recursion: the rng draws must happen in churner order. *)
  let rec churned k acc =
    if k = 0 then List.rev acc
    else begin
      let arrive = Ba_util.Rng.int_in rng 0 400 in
      let depart = arrive + Ba_util.Rng.int_in rng 2000 3500 in
      let return_at = depart + Ba_util.Rng.int_in rng 600 1400 in
      let leaver = mk ~start_at:arrive ~stop_at:depart (messages * 4) in
      let returner = mk ~start_at:return_at messages in
      churned (k - 1) (returner :: leaver :: acc)
    end
  in
  bases base [] @ churned churners []
