(* Sharded fabric: the Fabric model rebuilt as per-cell sub-simulations
   advanced in lockstep epochs, with the shared data link's bottleneck
   realised as per-cell capacity leases reconciled at the barriers. A
   lease is its cell's own data-link bottleneck queue, sized to the
   cell's share of the shared link and re-timed at every barrier.

   Everything semantic is a pure function of (specs, seed, cell,
   barrier, capacity, ...): each cell's engine/links/plans are seeded
   from the cell index, the lease reconciliation is an
   order-independent integer fold over cells, and the result is folded
   from the cells' parts in cell order. Without capacity no cell waits
   on another, so each is built, run and reduced on its own. [jobs]
   only chooses which pool task runs which cells, and the pool collects
   in input order, so the result is byte-identical at any job count. *)

module Counters = Ba_util.Counters
module Link = Ba_channel.Link

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

(* A cell's capacity lease: the rate and queue share of the shared data
   link [(svc, qcap)] its [n] of [total_flows] flows earn. The base rate
   is frames per [barrier]-tick epoch, at least one; the queue share is
   at least 4 slots and counts the frame in service, as a lease's
   backlog does, so the data link's bottleneck queue, which counts only
   the waiting frames, gets one slot fewer. *)
type lease = {
  link : Wire.data Link.t;
  svc : int;  (* the shared link's service time, a floor on the lease's *)
  barrier : int;
  base_rate : int;
  mutable mark : int;  (* [Link.served] at the last barrier *)
}

(* Barrier-time reconciliation: leases with no backlog cede their unused
   frame credits, backlogged ones split the spare pro rata to backlog
   and every link is re-timed for the next epoch. A pure integer fold,
   so cell order cannot matter. [true] when spare capacity was
   re-leased. *)
let reconcile leases =
  let spare = ref 0 and total_backlog = ref 0 in
  Array.iter
    (fun l ->
      let b = Link.backlog l.link in
      if b = 0 then spare := !spare + max 0 (l.base_rate - (Link.served l.link - l.mark))
      else total_backlog := !total_backlog + b)
    leases;
  let rebalanced = !spare > 0 && !total_backlog > 0 in
  Array.iter
    (fun l ->
      let b = Link.backlog l.link in
      let rate =
        if rebalanced && b > 0 then l.base_rate + (!spare * b / !total_backlog) else l.base_rate
      in
      Link.set_service l.link (max l.svc (l.barrier / rate));
      l.mark <- Link.served l.link)
    leases;
  rebalanced

(* What the result keeps of a cell once it has run. *)
type part = {
  block : Counters.t;
  sketch : Ba_util.Qsketch.t;
  mem_peak : int;
  flows : int;
  ended : int;  (* when its last flow ended, else its batch's last tick *)
  state : int;  (* bytes it kept after [Cell.start], when measured *)
}

(* A batch of cells after its epochs: how many ran, the barriers at
   which its leases were rebalanced, and its cells' parts in order. *)
type batch = { epochs : int; rebalances : int; parts : part list }

(* Advance [cells], each with its measured state and its lease, in
   lockstep epochs of [barrier] ticks until every flow has ended or the
   horizon, and reconcile their leases at every barrier. *)
let run_batch ~jobs ~barrier ~horizon cells =
  let leases = Array.of_list (List.filter_map (fun (_, _, l) -> l) cells) in
  let rebalances = ref 0 in
  let rec epoch_loop t epochs =
    let alive = List.filter (fun (c, _, _) -> Cell.remaining c > 0) cells in
    if alive = [] || t >= horizon then (t, epochs)
    else begin
      let t_end = min horizon (t + barrier) in
      (* One contiguous group of live cells per job: granularity only,
         never semantics. Each group advances its cells in order. *)
      let per = (List.length alive + jobs - 1) / jobs in
      let groups =
        List.init ((List.length alive + per - 1) / per) (fun g ->
            List.filteri (fun j _ -> j / per = g) alive)
      in
      ignore
        (Ba_parallel.Pool.map_chunks ~jobs ~chunk:1
           (List.iter (fun (c, _, _) -> Ba_sim.Engine.run ~until:t_end (Cell.engine c)))
           groups);
      if reconcile leases then incr rebalances;
      epoch_loop t_end (epochs + 1)
    end
  in
  let t, epochs = epoch_loop 0 0 in
  let part (c, state, _) =
    let block = Cell.counters c in
    Counters.add block Lease_drops
      (Counters.get (Link.counters (Cell.data_link c)) Queue_dropped);
    {
      block;
      sketch = Option.get (Cell.sketch c);
      mem_peak = Cell.mem_peak c;
      flows = Cell.flows c;
      ended = (if Cell.done_at c >= 0 then Cell.done_at c else t);
      state;
    }
  in
  let parts = List.map part cells in
  List.iter (fun (c, _, _) -> Cell.retire c) cells;
  { epochs; rebalances = !rebalances; parts }

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
  let total_flows = List.length specs in
  let ncells = (total_flows + cell - 1) / cell in
  let budget ci =
    let size = min cell (total_flows - (ci * cell)) in
    Option.map (fun b -> max 1 (b * size / total_flows)) memory_budget
  in
  (* Cell [ci]'s admission plan, over its flows in spec order. Every
     cell's is made once, before any cell runs, so a budget that admits
     no flow raises here, and the default horizon is the latest cell's.
     A slot is emptied when its cell is built, so the runner holds no
     flow's spec longer than needed. *)
  let plans =
    let rest = ref specs in
    let rec take n =
      match !rest with
      | s :: more when n > 0 ->
          rest := more;
          s :: take (n - 1)
      | _ -> []
    in
    Array.init ncells (fun ci -> Some (Cell.admission ?budget:(budget ci) (take cell)))
  in
  let horizon =
    let latest = ref 1 in
    Array.iter (fun p -> latest := max !latest (Option.get p).Cell.horizon) plans;
    Option.value deadline ~default:!latest
  in
  (* Each cell is seeded from its index, so it is a deterministic
     sub-simulation whenever and wherever it is built. Its state is the
     words it reaches beyond its specs, which needs no collection; the
     few statically allocated closures and constants every cell reaches
     count once per cell. *)
  let build ci =
    let plan = Option.get plans.(ci) in
    plans.(ci) <- None;
    let cell_seed = seed + (104729 * (ci + 1)) in
    let data_plan, ack_plan =
      match plans_for with
      | None -> (None, None)
      | Some f ->
          let dp, ap = f ~cell_seed in
          (Some dp, Some ap)
    in
    (* The cell's lease and the bottleneck it puts on its data link. A
       capacity with a non-positive member goes to [Cell.create] as
       given, which refuses it. *)
    let share =
      match capacity with
      | Some (svc, qcap) when svc > 0 && qcap > 0 ->
          let n = List.length plan.admitted in
          let base_rate = max 1 (barrier / svc * n / total_flows) in
          Some (svc, base_rate, (max svc (barrier / base_rate), max 4 (qcap * n / total_flows) - 1))
      | Some _ | None -> None
    in
    let c =
      Cell.create ~engine_seed:cell_seed
        ~wseed:(fun i -> seed + (7919 * ((ci * cell) + i + 1)))
        ~data_loss ~ack_loss ~data_delay ~ack_delay
        ?data_bottleneck:(match share with Some (_, _, b) -> Some b | None -> capacity)
        ?data_plan ?ack_plan ?watchdog ~sketch:true plan
    in
    let lease =
      Option.map
        (fun (svc, base_rate, _) -> { link = Cell.data_link c; svc; barrier; base_rate; mark = 0 })
        share
    in
    Cell.start c;
    let state =
      if measure_mem then
        let specs = plan.Cell.admitted in
        (Obj.reachable_words (Obj.repr (c, specs)) - Obj.reachable_words (Obj.repr specs))
        * (Sys.word_size / 8)
      else 0
    in
    (c, state, lease)
  in
  (* Leases tie every cell to every other at each barrier, so with
     capacity the batch is every cell. Without it no cell waits on
     another: each is built, run to its end and reduced to its part
     alone, one cell per pool task at a time, so at most one cell per
     worker is live. *)
  let batches =
    match capacity with
    | Some _ -> [ run_batch ~jobs ~barrier ~horizon (List.init ncells build) ]
    | None ->
        Ba_parallel.Pool.map_chunks ~jobs
          (fun ci -> run_batch ~jobs:1 ~barrier ~horizon [ build ci ])
          (List.init ncells Fun.id)
  in
  (* Fold in cell order; everything below is pure arithmetic over the
     parts, so the result is the same whatever domains ran the cells. *)
  let parts = List.concat_map (fun b -> b.parts) batches in
  let sum f = List.fold_left (fun acc x -> acc + f x) 0 in
  let most f = List.fold_left (fun acc x -> max acc (f x)) 0 in
  let counters = Counters.create () in
  List.iter (fun p -> Counters.merge_into counters p.block) parts;
  Counters.add counters Lease_rebalances (sum (fun b -> b.rebalances) batches);
  let count = Counters.get counters in
  let flows = sum (fun p -> p.flows) parts in
  let delivered = count Delivered in
  let ticks = most (fun p -> p.ended) parts in
  {
    flows;
    cells = ncells;
    counters;
    mem_peak_bytes = sum (fun p -> p.mem_peak) parts;
    ticks;
    epochs = most (fun b -> b.epochs) batches;
    completed = count Completed_flows + count Departed = flows;
    aggregate_goodput =
      (if ticks = 0 then 0. else float_of_int delivered *. 1000. /. float_of_int ticks);
    latency =
      List.fold_left
        (fun acc p -> Ba_util.Qsketch.merge acc p.sketch)
        (Ba_util.Qsketch.create ()) parts;
    state_bytes = sum (fun p -> p.state) parts;
    unsafe_cell = List.find_index (fun p -> unsafe p.block) parts;
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
