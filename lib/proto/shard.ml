(* Sharded fabric: the Fabric model rebuilt as per-cell sub-simulations
   advanced in lockstep epochs, with the shared data link's bottleneck
   realised as per-cell capacity leases reconciled at the barriers.

   Everything semantic is a pure function of (specs, seed, cell,
   barrier, capacity, ...): cells are built sequentially in spec order,
   each cell's engine/links/plans are seeded from the cell index, and
   the lease reconciliation is an order-independent integer fold over
   cells. [jobs] only chooses how live cells are grouped into pool
   tasks per epoch, and the pool collects in input order — so the
   result is byte-identical at any job count. *)

module Counters = Ba_util.Counters

type result = {
  flows : int;
  cells : int;
  counters : Counters.t;
  mem_peak_bytes : int;
  ticks : int;
  epochs : int;
  completed : bool;
  aggregate_goodput : float;
  latency : Ba_util.Qsketch.t;
  state_bytes : int;
  unsafe_cell : int option;
  delivered : int;
  duplicates : int;
  misordered : int;
  corrupted : int;
  data_sent : int;
  acks_sent : int;
  retransmissions : int;
  lease_drops : int;
}

let unsafe b = Counters.(get b Duplicates + get b Misordered + get b Corrupted) > 0

let run ?(seed = 42) ?jobs ?(cell = 1024) ?(barrier = 1000) ?(data_loss = 0.)
    ?(ack_loss = 0.) ?(data_delay = Ba_channel.Dist.Uniform (40, 60))
    ?(ack_delay = Ba_channel.Dist.Uniform (40, 60)) ?capacity ?plans_for
    ?deadline ?memory_budget ?watchdog ?(measure_mem = false) specs =
  if specs = [] then invalid_arg "Shard.run: at least one flow required";
  if cell < 1 then invalid_arg "Shard.run: cell must be >= 1";
  if barrier < 1 then invalid_arg "Shard.run: barrier must be >= 1";
  let jobs = match jobs with Some j -> j | None -> Ba_parallel.Pool.default_jobs () in
  if jobs < 1 then invalid_arg "Shard.run: jobs must be >= 1";
  Cell.validate ~who:"Shard.run" ?memory_budget specs;
  let specs = Array.of_list specs in
  let total_flows = Array.length specs in
  let ncells = (total_flows + cell - 1) / cell in
  let live_before =
    if measure_mem then begin
      Gc.full_major ();
      (Gc.stat ()).Gc.live_words
    end
    else 0
  in
  (* Cells are built, and pumped, one after another in spec order; each
     is seeded from its index, so it is a deterministic sub-simulation. *)
  let cells =
    Array.init ncells (fun ci ->
        let lo = ci * cell in
        let hi = min total_flows (lo + cell) in
        let cell_seed = seed + (104729 * (ci + 1)) in
        let data_plan, ack_plan =
          match plans_for with
          | None -> (None, None)
          | Some f ->
              let dp, ap = f ~cell_seed in
              (Some dp, Some ap)
        in
        let c =
          Cell.create ~engine_seed:cell_seed
            ~wseed:(fun i -> seed + (7919 * (lo + i + 1)))
            ~data_loss ~ack_loss ~data_delay ~ack_delay ?data_bottleneck:capacity
            ~lease:(barrier, total_flows) ?data_plan ?ack_plan
            ?budget:(Option.map (fun b -> max 1 (b * (hi - lo) / total_flows)) memory_budget)
            ?watchdog ~sketch:true
            (Array.to_list (Array.sub specs lo (hi - lo)))
        in
        Cell.start c;
        c)
  in
  let state_bytes =
    if measure_mem then begin
      Gc.full_major ();
      ((Gc.stat ()).Gc.live_words - live_before) * (Sys.word_size / 8)
    end
    else 0
  in
  let horizon =
    match deadline with
    | Some d -> d
    | None -> Array.fold_left (fun acc c -> max acc (Cell.deadline c)) 1 cells
  in
  let leases = Array.of_list (List.filter_map Cell.data_lease (Array.to_list cells)) in
  let epochs = ref 0 and rebalances = ref 0 in
  let t = ref 0 in
  let rec epoch_loop () =
    let alive = List.filter (fun c -> Cell.remaining c > 0) (Array.to_list cells) in
    if alive <> [] && !t < horizon then begin
      let t_end = min horizon (!t + barrier) in
      (* One contiguous group of live cells per job: granularity only,
         never semantics. Each group advances its cells in order. *)
      let per = (List.length alive + jobs - 1) / jobs in
      let groups =
        List.init ((List.length alive + per - 1) / per) (fun g ->
            List.filteri (fun j _ -> j / per = g) alive)
      in
      ignore
        (Ba_parallel.Pool.map_chunks ~jobs ~chunk:1
           (fun group ->
             List.iter (fun c -> Ba_sim.Engine.run ~until:t_end (Cell.engine c)) group)
           groups);
      if Cell.reconcile_leases leases then incr rebalances;
      incr epochs;
      t := t_end;
      epoch_loop ()
    end
  in
  epoch_loop ();
  (* Aggregate in cell order; everything below is pure arithmetic over
     per-cell state, so the fold order is fixed and the result is the
     same whatever domains ran the epochs. *)
  let blocks = Array.map Cell.counters cells in
  let counters = Counters.create () in
  Array.iter (Counters.merge_into counters) blocks;
  Counters.add counters Lease_rebalances !rebalances;
  let count = Counters.get counters in
  let flows = Array.fold_left (fun a c -> a + Cell.flows c) 0 cells in
  let delivered = count Delivered in
  let ticks =
    Array.fold_left
      (fun acc c -> max acc (if Cell.done_at c >= 0 then Cell.done_at c else !t))
      0 cells
  in
  {
    flows;
    cells = ncells;
    counters;
    mem_peak_bytes = Array.fold_left (fun a c -> a + Cell.mem_peak c) 0 cells;
    ticks;
    epochs = !epochs;
    completed = count Completed_flows + count Departed = flows;
    aggregate_goodput =
      (if ticks = 0 then 0. else float_of_int delivered *. 1000. /. float_of_int ticks);
    latency =
      Array.fold_left
        (fun acc c -> Ba_util.Qsketch.merge acc (Option.get (Cell.sketch c)))
        (Ba_util.Qsketch.create ()) cells;
    state_bytes;
    unsafe_cell = Seq.find (fun ci -> unsafe blocks.(ci)) (Seq.init ncells Fun.id);
    delivered;
    duplicates = count Duplicates;
    misordered = count Misordered;
    corrupted = count Corrupted;
    data_sent = count Data_sent;
    acks_sent = count Acks_sent;
    retransmissions = count Retransmissions;
    lease_drops = count Lease_drops;
  }

let safe r = not (unsafe r.counters)

let summary r =
  let n = Counters.get r.counters in
  let b = Buffer.create 512 in
  Printf.bprintf b "flows=%d cells=%d messages=%d\n" r.flows r.cells (n Messages);
  Printf.bprintf b
    "delivered=%d duplicates=%d misordered=%d corrupted=%d completed-flows=%d\n"
    (n Delivered) (n Duplicates) (n Misordered) (n Corrupted) (n Completed_flows);
  Printf.bprintf b "departed=%d refused=%d clamped-cells=%d\n" (n Departed) (n Refused)
    (n Clamped_cells);
  Printf.bprintf b "data-sent=%d acks-sent=%d retransmissions=%d pressure-drops=%d\n"
    (n Data_sent) (n Acks_sent) (n Retransmissions) (n Pressure_drops);
  Printf.bprintf b "lease-drops=%d lease-rebalances=%d\n" (n Lease_drops)
    (n Lease_rebalances);
  Printf.bprintf b "quarantine-events=%d watchdog-resyncs=%d quarantined=%d\n"
    (n Quarantine_events) (n Watchdog_resyncs) (n Quarantined);
  Printf.bprintf b "mem-peak=%dB ticks=%d epochs=%d completed=%b goodput=%.2f/ktick\n"
    r.mem_peak_bytes r.ticks r.epochs r.completed r.aggregate_goodput;
  (if Ba_util.Qsketch.count r.latency = 0 then
     Buffer.add_string b "latency: none\n"
   else
     Printf.bprintf b "latency: p50=%.0f p99=%.0f max=%.0f (n=%d)\n"
       (Ba_util.Qsketch.quantile r.latency 0.5)
       (Ba_util.Qsketch.quantile r.latency 0.99)
       (Ba_util.Qsketch.max r.latency)
       (Ba_util.Qsketch.count r.latency));
  Buffer.contents b
