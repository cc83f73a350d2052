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

module Engine = Ba_sim.Engine
module Link = Ba_channel.Link

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

(* One direction's capacity lease: a FIFO of frames the cell has
   offered to the "shared" link, served one frame per [interval] ticks
   by a persistent engine slot. [base_rate] is the cell's fair share in
   frames per epoch; reconciliation rewrites [interval] at barriers. *)
type 'a lease = {
  svc : int;  (* the modelled link's service time, a floor on interval *)
  barrier : int;
  base_rate : int;
  qcap : int;
  ring : 'a Ba_util.Ring_buffer.t;
  mutable head : int;
  mutable tail : int;
  mutable interval : int;
  mutable serviced : int;  (* frames sent this epoch *)
  mutable drops : int;
  mutable slot : Engine.slot option;
  send : 'a -> unit;
  release : 'a -> unit;
}

let lease_backlog l = l.tail - l.head

let make_lease engine ~svc ~barrier ~qcap ~base_rate ~send ~release =
  let l =
    {
      svc;
      barrier;
      base_rate;
      qcap;
      ring = Ba_util.Ring_buffer.create qcap;
      head = 0;
      tail = 0;
      interval = max svc (barrier / max 1 base_rate);
      serviced = 0;
      drops = 0;
      slot = None;
      send;
      release;
    }
  in
  let service () =
    if l.head < l.tail then begin
      let v = Option.get (Ba_util.Ring_buffer.get l.ring l.head) in
      Ba_util.Ring_buffer.remove l.ring l.head;
      l.head <- l.head + 1;
      l.serviced <- l.serviced + 1;
      l.send v;
      if l.head < l.tail then
        Engine.slot_arm (Option.get l.slot) ~delay:l.interval
    end
  in
  l.slot <- Some (Engine.slot_create engine service);
  l

let lease_offer l v =
  if lease_backlog l >= l.qcap then begin
    l.drops <- l.drops + 1;
    l.release v
  end
  else begin
    Ba_util.Ring_buffer.set l.ring l.tail v;
    l.tail <- l.tail + 1;
    let slot = Option.get l.slot in
    if not (Engine.slot_armed slot) then Engine.slot_arm slot ~delay:l.interval
  end

(* Barrier-time reconciliation over one direction's leases: cells with
   no backlog cede their unused frame credits, backlogged cells split
   the spare pro rata. Pure integer fold — cell order cannot matter. *)
let reconcile_leases leases =
  let spare = ref 0 and total_backlog = ref 0 in
  Array.iter
    (fun l ->
      let b = lease_backlog l in
      if b = 0 then spare := !spare + max 0 (l.base_rate - l.serviced)
      else total_backlog := !total_backlog + b)
    leases;
  let rebalanced = !spare > 0 && !total_backlog > 0 in
  Array.iter
    (fun l ->
      let b = lease_backlog l in
      let rate =
        if rebalanced && b > 0 then l.base_rate + (!spare * b / !total_backlog)
        else l.base_rate
      in
      l.interval <- max l.svc (l.barrier / max 1 rate);
      l.serviced <- 0)
    leases;
  rebalanced

(* Per-protocol endpoint arrays behind one set of closures: dispatch
   costs one closure per *group*, not per flow. *)
type group = {
  g_create :
    slot:int ->
    Proto_config.t ->
    tx:(Wire.data -> unit) ->
    next_payload:(unit -> string option) ->
    ack_tx:(Wire.ack -> unit) ->
    deliver:(string -> unit) ->
    unit;
  g_on_ack : int -> Wire.ack -> unit;
  g_on_data : int -> Wire.data -> unit;
  g_pump : int -> unit;
  g_sender_done : int -> bool;
  g_retx : int -> int;
  g_mem : int -> int;
  g_pressure : int -> int;
  g_clamp : int -> int -> unit;
  g_resync : int -> unit;  (* crash+restart sender; no-op if unsupported *)
}

let make_group engine (module P : Protocol.S) count =
  let senders : P.sender option array = Array.make count None in
  let receivers : P.receiver option array = Array.make count None in
  let s i = Option.get senders.(i) and r i = Option.get receivers.(i) in
  {
    g_create =
      (fun ~slot config ~tx ~next_payload ~ack_tx ~deliver ->
        (* sender before receiver, as Flow.create does *)
        senders.(slot) <- Some (P.create_sender engine config ~tx ~next_payload);
        receivers.(slot) <- Some (P.create_receiver engine config ~tx:ack_tx ~deliver));
    g_on_ack = (fun i a -> P.sender_on_ack (s i) a);
    g_on_data = (fun i d -> P.receiver_on_data (r i) d);
    g_pump = (fun i -> P.sender_pump (s i));
    g_sender_done = (fun i -> P.sender_done (s i));
    g_retx = (fun i -> P.sender_retransmissions (s i));
    g_mem = (fun i -> P.sender_mem_bytes (s i) + P.receiver_mem_bytes (r i));
    g_pressure = (fun i -> P.receiver_pressure_dropped (r i));
    g_clamp = (fun i w -> P.sender_clamp_window (s i) w);
    g_resync =
      (fun i ->
        if P.crash_tolerant then begin
          P.sender_crash (s i);
          P.sender_restart (s i)
        end);
  }

type cell = {
  c_engine : Engine.t;
  c_n : int;
  c_messages : int;  (* offered by this cell's admitted flows *)
  c_refused : int;
  c_clamped : bool;
  c_deadline : int;
  c_data_lease : (int * Wire.data) lease option;
  c_ack_lease : (int * Wire.ack) lease option;
  c_remaining : int ref;
  c_done_at : int ref;  (* -1 while running *)
  c_delivered : int array;
  c_completed : bool array;
  c_departed_mid : bool array;
  c_duplicates : int ref;
  c_misordered : int ref;
  c_corrupted : int ref;
  c_data_sent : int ref;
  c_acks_sent : int ref;
  c_departed : int ref;
  c_mem_peak : int ref;
  c_latency : Ba_util.Qsketch.t;
  c_groups : group array;
  c_group_of : int array;
  c_gslot : int array;
  c_dogs : Watchdog.t array;
}

let build_cell ~seed ~cell_index ~flow_base ~barrier ~data_loss ~ack_loss ~data_delay
    ~ack_delay ~capacity ~ack_capacity ~plans_for ~cell_budget ~watchdog ~total_flows
    (specs : Fabric.spec list) =
  let cell_seed = seed + (104729 * (cell_index + 1)) in
  let specs, refused, clamp =
    match cell_budget with
    | None -> (specs, 0, None)
    | Some budget -> Fabric.plan_admission ~budget specs
  in
  (* Enforce the clamp on the receiver side too, exactly as Fabric does:
     rewrite rx_budget so a misbehaving sender cannot pin more than the
     accounted slots. *)
  let specs =
    match clamp with
    | None -> specs
    | Some c ->
        List.map
          (fun (sp : Fabric.spec) ->
            let w = sp.config.Proto_config.window in
            if c >= w then sp
            else
              let rx = Option.value ~default:w sp.config.Proto_config.rx_budget in
              {
                sp with
                config = { sp.config with Proto_config.rx_budget = Some (min c rx) };
              })
          specs
  in
  let specs = Array.of_list specs in
  let n = Array.length specs in
  let engine = Engine.create ~seed:cell_seed () in
  let messages = Array.map (fun (sp : Fabric.spec) -> sp.messages) specs in
  let msg_base = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    msg_base.(i + 1) <- msg_base.(i) + messages.(i)
  done;
  let total_msgs = msg_base.(n) in
  let delivered = Array.make n 0 in
  let next_expected = Array.make n 0 in
  let next_msg = Array.make n 0 in
  let gated = Array.make n false in
  let active = Array.make n true in
  let completed = Array.make n false in
  let departed_mid = Array.make n false in
  let starts = Array.map (fun (sp : Fabric.spec) -> sp.start_at) specs in
  let seen = Ba_util.Bitset.create ~initial_capacity:(max 1 total_msgs) () in
  let pulled_at = Array.make (max 1 total_msgs) (-1) in
  let remaining = ref n in
  let done_at = ref (-1) in
  let duplicates = ref 0
  and misordered = ref 0
  and corrupted = ref 0
  and data_sent = ref 0
  and acks_sent = ref 0
  and departed = ref 0
  and mem_peak = ref 0 in
  let latency = Ba_util.Qsketch.create () in
  (* Forward refs: link deliver closures are created before the groups
     that serve them. *)
  let feed_data = ref (fun (_ : int) (_ : Wire.data) -> ()) in
  let feed_ack = ref (fun (_ : int) (_ : Wire.ack) -> ()) in
  let data_link =
    Link.create engine ~loss:data_loss ~delay:data_delay
      ~corrupt:(fun (i, d) -> (i, Wire.corrupt_data d))
      ~release:(fun (_, d) -> Wire.release_data d)
      ~deliver:(fun (i, d) -> !feed_data i d)
      ()
  in
  let ack_link =
    Link.create engine ~loss:ack_loss ~delay:ack_delay
      ~corrupt:(fun (i, a) -> (i, Wire.corrupt_ack a))
      ~release:(fun (_, a) -> Wire.release_ack a)
      ~deliver:(fun (i, a) -> !feed_ack i a)
      ()
  in
  (match plans_for with
  | None -> ()
  | Some f ->
      let dp, ap = f ~cell_seed in
      Link.set_plan data_link dp;
      Link.set_plan ack_link ap);
  let mk_lease cap ~send ~release =
    match cap with
    | None -> None
    | Some (svc, qcap) ->
        let svc = max 1 svc in
        let base_rate = max 1 (barrier / svc * n / max 1 total_flows) in
        let qshare = max 4 (qcap * n / max 1 total_flows) in
        Some (make_lease engine ~svc ~barrier ~qcap:qshare ~base_rate ~send ~release)
  in
  let data_lease =
    mk_lease capacity
      ~send:(fun v -> Link.send data_link v)
      ~release:(fun (_, d) -> Wire.release_data d)
  in
  let ack_lease =
    mk_lease ack_capacity
      ~send:(fun v -> Link.send ack_link v)
      ~release:(fun (_, a) -> Wire.release_ack a)
  in
  (* Group flows by protocol: first pass sizes the per-protocol endpoint
     arrays, second pass creates endpoints in spec order. *)
  let group_of = Array.make n 0 and gslot = Array.make n 0 in
  let names : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let protos = ref [] in
  Array.iteri
    (fun i (sp : Fabric.spec) ->
      let (module P : Protocol.S) = sp.protocol in
      match Hashtbl.find_opt names P.name with
      | Some g -> group_of.(i) <- g
      | None ->
          let g = Hashtbl.length names in
          Hashtbl.add names P.name g;
          group_of.(i) <- g;
          protos := sp.protocol :: !protos)
    specs;
  let gcount = Array.make (Hashtbl.length names) 0 in
  Array.iteri
    (fun i _ ->
      gslot.(i) <- gcount.(group_of.(i));
      gcount.(group_of.(i)) <- gcount.(group_of.(i)) + 1)
    specs;
  let protos = Array.of_list (List.rev !protos) in
  let groups = Array.mapi (fun g p -> make_group engine p gcount.(g)) protos in
  let grp i = groups.(group_of.(i)) in
  (* Completion: all payloads delivered and the sender drained. Checked
     after every delivery and every ack, like Flow.check_done. *)
  let check_done i =
    if
      active.(i)
      && (not completed.(i))
      && delivered.(i) >= messages.(i)
      && (grp i).g_sender_done gslot.(i)
    then begin
      completed.(i) <- true;
      decr remaining;
      if !remaining = 0 then begin
        done_at := Engine.now engine;
        Engine.stop engine
      end
    end
  in
  let deliver_for i (sp : Fabric.spec) wseed payload =
    (match Workload.index_of payload with
    | None -> incr corrupted
    | Some k when k < 0 || k >= messages.(i) -> incr corrupted
    | Some k ->
        if not (Workload.matches ~seed:wseed ~size:sp.payload_size k payload) then incr corrupted
        else begin
          let bit = msg_base.(i) + k in
          if Ba_util.Bitset.mem seen bit then incr duplicates
          else begin
            Ba_util.Bitset.set seen bit;
            delivered.(i) <- delivered.(i) + 1;
            let t0 = pulled_at.(bit) in
            if t0 >= 0 then
              Ba_util.Qsketch.add latency (float_of_int (Engine.now engine - t0));
            if k <> next_expected.(i) then incr misordered;
            next_expected.(i) <- k + 1
          end
        end);
    check_done i
  in
  feed_data := (fun i d -> if active.(i) then (grp i).g_on_data gslot.(i) d);
  feed_ack :=
    (fun i a ->
      if active.(i) then begin
        (grp i).g_on_ack gslot.(i) a;
        check_done i
      end);
  let offer_data i d =
    incr data_sent;
    if gated.(i) then Wire.release_data d
    else
      match data_lease with
      | Some l -> lease_offer l (i, d)
      | None -> Link.send data_link (i, d)
  in
  let offer_ack i a =
    incr acks_sent;
    if gated.(i) then Wire.release_ack a
    else
      match ack_lease with
      | Some l -> lease_offer l (i, a)
      | None -> Link.send ack_link (i, a)
  in
  (* Create endpoints in spec order (sender then receiver per flow). The
     per-flow wiring is exactly four closures, each capturing its local
     index; every other piece of state lives in the flat arrays above. *)
  Array.iteri
    (fun i (sp : Fabric.spec) ->
      let wseed = seed + (7919 * (flow_base + i + 1)) in
      let next_payload () =
        let k = next_msg.(i) in
        if k >= messages.(i) then None
        else begin
          next_msg.(i) <- k + 1;
          pulled_at.(msg_base.(i) + k) <- Engine.now engine;
          Some (Workload.payload ~seed:wseed ~size:sp.payload_size k)
        end
      in
      (grp i).g_create ~slot:gslot.(i) sp.config
        ~tx:(fun d -> offer_data i d)
        ~next_payload
        ~ack_tx:(fun a -> offer_ack i a)
        ~deliver:(fun p -> deliver_for i sp wseed p);
      match clamp with Some c -> (grp i).g_clamp gslot.(i) c | None -> ())
    specs;
  (* Departures: at stop_at the flow is closed whether or not it
     finished; its demux gate shuts so no event can reach it and its
     model bytes stop counting. *)
  Array.iteri
    (fun i (sp : Fabric.spec) ->
      match sp.stop_at with
      | None -> ()
      | Some d ->
          ignore
            (Engine.schedule_at engine ~at:d (fun () ->
                 if active.(i) then begin
                   active.(i) <- false;
                   gated.(i) <- true;
                   if not completed.(i) then begin
                     departed_mid.(i) <- true;
                     incr departed;
                     decr remaining;
                     if !remaining = 0 then begin
                       done_at := Engine.now engine;
                       Engine.stop engine
                     end
                   end
                 end)))
    specs;
  let sample_mem () =
    let total = ref 0 in
    for i = 0 to n - 1 do
      if active.(i) then total := !total + (grp i).g_mem gslot.(i)
    done;
    if !total > !mem_peak then mem_peak := !total
  in
  let dogs =
    match watchdog with
    | None -> [||]
    | Some wcfg ->
        let dogs = Array.init n (fun _ -> Watchdog.create wcfg) in
        let rec tick () =
          sample_mem ();
          for i = 0 to n - 1 do
            if active.(i) && starts.(i) <= Engine.now engine then begin
              match
                Watchdog.observe dogs.(i) ~delivered:delivered.(i)
                  ~completed:completed.(i)
              with
              | Watchdog.Nothing -> ()
              | Watchdog.Resync -> (grp i).g_resync gslot.(i)
              | Watchdog.Quarantine -> gated.(i) <- true
              | Watchdog.Release ->
                  gated.(i) <- false;
                  (grp i).g_resync gslot.(i)
            end
          done;
          if !remaining > 0 then
            ignore (Engine.schedule engine ~delay:wcfg.Watchdog.check_interval tick)
        in
        ignore (Engine.schedule engine ~delay:wcfg.Watchdog.check_interval tick);
        dogs
  in
  (match cell_budget with
  | Some _ when watchdog = None ->
      let rec tick () =
        sample_mem ();
        if !remaining > 0 then ignore (Engine.schedule engine ~delay:500 tick)
      in
      ignore (Engine.schedule engine ~delay:500 tick)
  | Some _ | None -> ());
  (* Pump in spec order; surge flows exist from tick 0 but only offer
     traffic at their start tick. *)
  Array.iteri
    (fun i _ ->
      if starts.(i) = 0 then (grp i).g_pump gslot.(i)
      else
        ignore
          (Engine.schedule_at engine ~at:starts.(i) (fun () ->
               if active.(i) then (grp i).g_pump gslot.(i))))
    specs;
  let cell_deadline =
    let max_rto =
      Array.fold_left
        (fun acc (sp : Fabric.spec) -> max acc sp.config.Proto_config.rto)
        1 specs
    in
    (max 1 total_msgs * max_rto * 20) + 1_000_000
  in
  {
    c_engine = engine;
    c_n = n;
    c_messages = total_msgs;
    c_refused = refused;
    c_clamped = clamp <> None;
    c_deadline = cell_deadline;
    c_data_lease = data_lease;
    c_ack_lease = ack_lease;
    c_remaining = remaining;
    c_done_at = done_at;
    c_delivered = delivered;
    c_completed = completed;
    c_departed_mid = departed_mid;
    c_duplicates = duplicates;
    c_misordered = misordered;
    c_corrupted = corrupted;
    c_data_sent = data_sent;
    c_acks_sent = acks_sent;
    c_departed = departed;
    c_mem_peak = mem_peak;
    c_latency = latency;
    c_groups = groups;
    c_group_of = group_of;
    c_gslot = gslot;
    c_dogs = dogs;
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
  List.iter
    (fun (sp : Fabric.spec) ->
      Proto_config.validate sp.config;
      if sp.start_at < 0 then invalid_arg "Shard.run: start_at must be >= 0";
      match sp.stop_at with
      | Some d when d <= sp.start_at -> invalid_arg "Shard.run: stop_at must be > start_at"
      | Some _ | None -> ())
    specs;
  (match memory_budget with
  | Some b when b <= 0 -> invalid_arg "Shard.run: memory_budget must be positive"
  | Some _ | None -> ());
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
  let cells =
    Array.init ncells (fun ci ->
        let lo = ci * cell in
        let hi = min total_flows (lo + cell) in
        let slice = Array.to_list (Array.sub specs lo (hi - lo)) in
        let cell_budget =
          match memory_budget with
          | None -> None
          | Some b -> Some (max 1 (b * (hi - lo) / total_flows))
        in
        build_cell ~seed ~cell_index:ci ~flow_base:lo ~barrier ~data_loss ~ack_loss
          ~data_delay ~ack_delay ~capacity ~ack_capacity ~plans_for ~cell_budget
          ~watchdog ~total_flows slice)
  in
  let state_bytes =
    if measure_mem then begin
      Gc.full_major ();
      (((Gc.stat ()).Gc.live_words - live_before) * (Sys.word_size / 8))
    end
    else 0
  in
  let horizon =
    match deadline with
    | Some d -> d
    | None -> Array.fold_left (fun acc c -> max acc c.c_deadline) 1 cells
  in
  let data_leases =
    Array.of_list
      (List.filter_map (fun c -> c.c_data_lease) (Array.to_list cells))
  in
  let ack_leases =
    Array.of_list (List.filter_map (fun c -> c.c_ack_lease) (Array.to_list cells))
  in
  let epochs = ref 0 and rebalances = ref 0 in
  let t = ref 0 in
  let live () =
    Array.to_list cells |> List.filter (fun c -> !(c.c_remaining) > 0)
  in
  let rec epoch_loop () =
    let alive = live () in
    if alive <> [] && !t < horizon then begin
      let t_end = min horizon (!t + barrier) in
      (* Contiguous shard groups over the live cells: granularity only,
         never semantics. Each group advances its cells in order. *)
      let nalive = List.length alive in
      let per = (nalive + shards - 1) / max 1 shards in
      let rec split xs =
        match xs with
        | [] -> []
        | _ ->
            let rec take k = function
              | x :: tl when k > 0 ->
                  let a, b = take (k - 1) tl in
                  (x :: a, b)
              | rest -> ([], rest)
            in
            let g, rest = take per xs in
            g :: split rest
      in
      ignore
        (Ba_parallel.Pool.map_chunks ~jobs ~chunk:1
           (fun group ->
             List.iter (fun c -> Engine.run ~until:t_end c.c_engine) group)
           (split alive));
      if reconcile_leases data_leases then incr rebalances;
      if Array.length ack_leases > 0 && reconcile_leases ack_leases then incr rebalances;
      incr epochs;
      t := t_end;
      epoch_loop ()
    end
  in
  epoch_loop ();
  (* Aggregate in cell order; everything below is pure arithmetic over
     per-cell state, so the fold order is fixed and the result is the
     same whatever domains ran the epochs. *)
  let flows = Array.fold_left (fun a c -> a + c.c_n) 0 cells in
  let sum f = Array.fold_left (fun a c -> a + f c) 0 cells in
  let delivered = sum (fun c -> Array.fold_left ( + ) 0 c.c_delivered) in
  let per_flow_sum f =
    sum (fun c ->
        let acc = ref 0 in
        for i = 0 to c.c_n - 1 do
          acc := !acc + f c i
        done;
        !acc)
  in
  let retx = per_flow_sum (fun c i -> c.c_groups.(c.c_group_of.(i)).g_retx c.c_gslot.(i)) in
  let pressure =
    per_flow_sum (fun c i -> c.c_groups.(c.c_group_of.(i)).g_pressure c.c_gslot.(i))
  in
  let completed_flows =
    sum (fun c ->
        Array.fold_left (fun a b -> if b then a + 1 else a) 0 c.c_completed)
  in
  let ticks =
    Array.fold_left
      (fun acc c -> max acc (if !(c.c_done_at) >= 0 then !(c.c_done_at) else !t))
      0 cells
  in
  let latency =
    Array.fold_left
      (fun acc c -> Ba_util.Qsketch.merge acc c.c_latency)
      (Ba_util.Qsketch.create ()) cells
  in
  let lease_drops =
    Array.fold_left (fun a l -> a + l.drops) 0 data_leases
    + Array.fold_left (fun a l -> a + l.drops) 0 ack_leases
  in
  {
    flows;
    cells = ncells;
    messages = sum (fun c -> c.c_messages);
    delivered;
    duplicates = sum (fun c -> !(c.c_duplicates));
    misordered = sum (fun c -> !(c.c_misordered));
    corrupted = sum (fun c -> !(c.c_corrupted));
    completed_flows;
    departed = sum (fun c -> !(c.c_departed));
    refused = sum (fun c -> c.c_refused);
    clamped_cells =
      Array.fold_left (fun a c -> if c.c_clamped then a + 1 else a) 0 cells;
    data_sent = sum (fun c -> !(c.c_data_sent));
    acks_sent = sum (fun c -> !(c.c_acks_sent));
    retransmissions = retx;
    pressure_drops = pressure;
    lease_drops;
    lease_rebalances = !rebalances;
    quarantine_events =
      sum (fun c -> Array.fold_left (fun a d -> a + Watchdog.quarantine_events d) 0 c.c_dogs);
    watchdog_resyncs =
      sum (fun c -> Array.fold_left (fun a d -> a + Watchdog.resync_events d) 0 c.c_dogs);
    quarantined =
      sum (fun c ->
          Array.fold_left
            (fun a d -> if Watchdog.state d = Watchdog.Quarantined then a + 1 else a)
            0 c.c_dogs);
    mem_peak_bytes = sum (fun c -> !(c.c_mem_peak));
    ticks;
    epochs = !epochs;
    completed =
      Array.for_all
        (fun c ->
          let ok = ref true in
          for i = 0 to c.c_n - 1 do
            if not (c.c_completed.(i) || c.c_departed_mid.(i)) then ok := false
          done;
          !ok)
        cells;
    aggregate_goodput =
      (if ticks = 0 then 0.
       else float_of_int delivered *. 1000. /. float_of_int ticks);
    latency;
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
