(* Sharded fabric: the Fabric model rebuilt as per-cell sub-simulations
   advanced in lockstep epochs, with the shared-link bottleneck realised
   as per-cell capacity leases reconciled at the barriers.

   Everything semantic is a pure function of (specs, seed, cell,
   barrier, capacity, ...): cells are built sequentially in spec order,
   each cell's engine/links/plans are seeded from the cell index, and
   the lease reconciliation is an order-independent integer fold over
   cells. [shards]/[jobs] only choose how live cells are grouped into
   pool tasks per epoch, and the pool collects in input order — so the
   result is byte-identical at any shard count and any job count. *)

type result = {
  flows : int;
  cells : int;
  messages : int;
  delivered : int;
  duplicates : int;
  misordered : int;
  corrupted : int;
  completed_flows : int;
  departed : int;
  refused : int;
  clamped_cells : int;
  data_sent : int;
  acks_sent : int;
  retransmissions : int;
  pressure_drops : int;
  lease_drops : int;
  lease_rebalances : int;
  quarantine_events : int;
  watchdog_resyncs : int;
  quarantined : int;
  mem_peak_bytes : int;
  ticks : int;
  epochs : int;
  completed : bool;
  aggregate_goodput : float;
  latency : Ba_util.Qsketch.t;
  state_bytes : int;
}

let run ?(seed = 42) ?jobs ?shards ?(cell = 1024) ?(barrier = 1000) ?(data_loss = 0.)
    ?(ack_loss = 0.) ?(data_delay = Ba_channel.Dist.Uniform (40, 60))
    ?(ack_delay = Ba_channel.Dist.Uniform (40, 60)) ?capacity ?ack_capacity ?plans_for
    ?deadline ?memory_budget ?watchdog ?(measure_mem = false) specs =
  if specs = [] then invalid_arg "Shard.run: at least one flow required";
  if cell < 1 then invalid_arg "Shard.run: cell must be >= 1";
  if barrier < 1 then invalid_arg "Shard.run: barrier must be >= 1";
  let jobs = match jobs with Some j -> j | None -> Ba_parallel.Pool.default_jobs () in
  if jobs < 1 then invalid_arg "Shard.run: jobs must be >= 1";
  let shards = match shards with Some s -> s | None -> jobs in
  if shards < 1 then invalid_arg "Shard.run: shards must be >= 1";
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
            ?ack_bottleneck:ack_capacity ~lease:(barrier, total_flows) ?data_plan ?ack_plan
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
  let leases f = Array.of_list (List.filter_map f (Array.to_list cells)) in
  let data_leases = leases Cell.data_lease and ack_leases = leases Cell.ack_lease in
  let epochs = ref 0 and rebalances = ref 0 in
  let t = ref 0 in
  let rec epoch_loop () =
    let alive = List.filter (fun c -> Cell.remaining c > 0) (Array.to_list cells) in
    if alive <> [] && !t < horizon then begin
      let t_end = min horizon (!t + barrier) in
      (* Contiguous shard groups over the live cells: granularity only,
         never semantics. Each group advances its cells in order. *)
      let per = (List.length alive + shards - 1) / shards in
      let groups =
        List.init ((List.length alive + per - 1) / per) (fun g ->
            List.filteri (fun j _ -> j / per = g) alive)
      in
      ignore
        (Ba_parallel.Pool.map_chunks ~jobs ~chunk:1
           (fun group ->
             List.iter (fun c -> Ba_sim.Engine.run ~until:t_end (Cell.engine c)) group)
           groups);
      if Cell.reconcile_leases data_leases then incr rebalances;
      if Array.length ack_leases > 0 && Cell.reconcile_leases ack_leases then incr rebalances;
      incr epochs;
      t := t_end;
      epoch_loop ()
    end
  in
  epoch_loop ();
  (* Aggregate in cell order; everything below is pure arithmetic over
     per-cell state, so the fold order is fixed and the result is the
     same whatever domains ran the epochs. *)
  let tallies = Array.map Cell.tally cells in
  let sum f = Array.fold_left (fun a x -> a + f x) 0 tallies in
  let sum_cells f = Array.fold_left (fun a c -> a + f c) 0 cells in
  let delivered = sum (fun t -> t.Cell.delivered) in
  let ticks =
    Array.fold_left
      (fun acc c -> max acc (if Cell.done_at c >= 0 then Cell.done_at c else !t))
      0 cells
  in
  let lease_drops ls = Array.fold_left (fun a l -> a + Cell.lease_drops l) 0 ls in
  {
    flows = sum_cells Cell.flows;
    cells = ncells;
    messages = sum (fun t -> t.Cell.messages);
    delivered;
    duplicates = sum (fun t -> t.Cell.duplicates);
    misordered = sum (fun t -> t.Cell.misordered);
    corrupted = sum (fun t -> t.Cell.corrupted);
    completed_flows = sum (fun t -> t.Cell.completed_flows);
    departed = sum (fun t -> t.Cell.departed);
    refused = sum_cells Cell.refused;
    clamped_cells = sum_cells (fun c -> if Cell.clamp c <> None then 1 else 0);
    data_sent = sum (fun t -> t.Cell.data_sent);
    acks_sent = sum (fun t -> t.Cell.acks_sent);
    retransmissions = sum (fun t -> t.Cell.retransmissions);
    pressure_drops = sum (fun t -> t.Cell.pressure_drops);
    lease_drops = lease_drops data_leases + lease_drops ack_leases;
    lease_rebalances = !rebalances;
    quarantine_events = sum (fun t -> t.Cell.quarantine_events);
    watchdog_resyncs = sum (fun t -> t.Cell.watchdog_resyncs);
    quarantined = sum (fun t -> t.Cell.quarantined);
    mem_peak_bytes = sum_cells Cell.mem_peak;
    ticks;
    epochs = !epochs;
    completed = Array.for_all (fun t -> t.Cell.all_ended) tallies;
    aggregate_goodput =
      (if ticks = 0 then 0. else float_of_int delivered *. 1000. /. float_of_int ticks);
    latency =
      Array.fold_left
        (fun acc c -> Ba_util.Qsketch.merge acc (Option.get (Cell.sketch c)))
        (Ba_util.Qsketch.create ()) cells;
    state_bytes;
  }

let summary r =
  let b = Buffer.create 512 in
  Printf.bprintf b "flows=%d cells=%d messages=%d\n" r.flows r.cells r.messages;
  Printf.bprintf b
    "delivered=%d duplicates=%d misordered=%d corrupted=%d completed-flows=%d\n"
    r.delivered r.duplicates r.misordered r.corrupted r.completed_flows;
  Printf.bprintf b "departed=%d refused=%d clamped-cells=%d\n" r.departed r.refused
    r.clamped_cells;
  Printf.bprintf b "data-sent=%d acks-sent=%d retransmissions=%d pressure-drops=%d\n"
    r.data_sent r.acks_sent r.retransmissions r.pressure_drops;
  Printf.bprintf b "lease-drops=%d lease-rebalances=%d\n" r.lease_drops
    r.lease_rebalances;
  Printf.bprintf b "quarantine-events=%d watchdog-resyncs=%d quarantined=%d\n"
    r.quarantine_events r.watchdog_resyncs r.quarantined;
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
