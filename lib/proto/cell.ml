(* One simulation cell: an engine, a data link, an ack link and the
   endpoints of every flow they carry, plus the per-flow accounting that
   turns deliveries into verdicts. Harness runs one flow in a cell,
   Fabric runs all its flows in one cell, Shard runs many cells in
   lockstep epochs.

   Flows share the links; each frame travels with its flow index in the
   link's arena tag column (and the lease ring's), so the tag costs no
   allocation and faults mangle frames, never the demultiplexing.
   Per-flow state is flat: one strided int array of counters, prefix
   offsets into cell-wide message slots, and per-protocol endpoint
   arrays behind a single dispatch. *)

module Engine = Ba_sim.Engine
module Link = Ba_channel.Link
module Bitset = Ba_util.Bitset
module Stats = Ba_util.Stats
module Qsketch = Ba_util.Qsketch

type spec = {
  protocol : Protocol.t;
  config : Proto_config.t;
  messages : int;
  payload_size : int;
  start_at : int;
  stop_at : int option;
}

let spec ?(config = Proto_config.default) ?(messages = 100) ?(payload_size = 32) ?(start_at = 0)
    ?stop_at protocol =
  { protocol; config; messages; payload_size; start_at; stop_at }

let validate ~who ?memory_budget specs =
  if specs = [] then invalid_arg (who ^ ": at least one flow required");
  List.iter
    (fun s ->
      Proto_config.validate s.config;
      if s.start_at < 0 then invalid_arg (who ^ ": start_at must be >= 0");
      match s.stop_at with
      | Some d when d <= s.start_at -> invalid_arg (who ^ ": stop_at must be > start_at")
      | Some _ | None -> ())
    specs;
  match memory_budget with
  | Some b when b <= 0 -> invalid_arg (who ^ ": memory_budget must be positive")
  | Some _ | None -> ()

(* ---- admission ---- *)

(* Worst-case bytes one flow can pin: a full effective window of
   payloads in the sender's retransmit buffer plus as many again in the
   receiver's reassembly window. Deliberately conservative — admission
   guarantees the budget even when every admitted flow (surge flows
   included) saturates simultaneously. *)
let flow_cost s ~clamp = 2 * min s.config.Proto_config.window clamp * s.payload_size

(* Peak concurrent cost under the interval model: a flow pins memory
   only while its [start_at, stop_at) interval is open, so the budget
   must cover the worst instant, not the lifetime sum. The concurrent
   total is piecewise constant and only steps up at interval starts, so
   checking each spec's [start_at] finds the peak. With no [stop_at]
   anywhere every interval is open-ended and the peak equals the plain
   sum. *)
let peak_cost ~clamp specs =
  let active_at t s =
    s.start_at <= t && match s.stop_at with None -> true | Some d -> t < d
  in
  List.fold_left
    (fun acc s ->
      let here =
        List.fold_left
          (fun a s' -> if active_at s.start_at s' then a + flow_cost s' ~clamp else a)
          0 specs
      in
      max acc here)
    0 specs

(* Graceful degradation, in preference order: admit everyone unclamped;
   else admit everyone under the largest uniform window clamp that
   fits; else clamp to 1 and admit the longest spec prefix that fits,
   refusing the rest. "Fits" is the peak-concurrency test above, so a
   departing flow's reservation is reusable by any arrival scheduled
   after its [stop_at]. *)
let plan_admission ~budget specs =
  let max_w = List.fold_left (fun acc s -> max acc s.config.Proto_config.window) 1 specs in
  let rec fit c = if c >= 1 && peak_cost ~clamp:c specs > budget then fit (c - 1) else c in
  let c = fit max_w in
  if c >= 1 then (specs, 0, if c < max_w then Some c else None)
  else begin
    let rec split admitted = function
      | [] -> (List.rev admitted, 0)
      | s :: rest ->
          if peak_cost ~clamp:1 (List.rev (s :: admitted)) > budget then
            (List.rev admitted, List.length (s :: rest))
          else split (s :: admitted) rest
    in
    let admitted, refused = split [] specs in
    if admitted = [] then invalid_arg "Fabric.run: memory_budget admits no flow";
    (admitted, refused, Some 1)
  end

(* ---- capacity leases ---- *)

(* One direction's capacity lease: a FIFO of (flow, frame) the cell has
   offered to the "shared" link, served one frame per [interval] ticks
   by a persistent engine slot. [base_rate] is the cell's fair share in
   frames per epoch; reconciliation rewrites [interval] at barriers. *)
type 'a lease = {
  svc : int;  (* the modelled link's service time, a floor on interval *)
  barrier : int;
  base_rate : int;
  qcap : int;
  mutable frames : 'a array;  (* [||] until the first offer supplies a filler *)
  tags : int array;
  mutable head : int;
  mutable tail : int;
  mutable interval : int;
  mutable serviced : int;  (* frames sent this epoch *)
  mutable drops : int;
  mutable slot : Engine.slot option;
  send : int -> 'a -> unit;
  release : 'a -> unit;
}

let lease_backlog l = l.tail - l.head
let lease_drops l = l.drops

let make_lease engine ~svc ~barrier ~qcap ~base_rate ~send ~release =
  let l =
    {
      svc;
      barrier;
      base_rate;
      qcap;
      frames = [||];
      tags = Array.make qcap 0;
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
      let k = l.head mod l.qcap in
      l.head <- l.head + 1;
      l.serviced <- l.serviced + 1;
      l.send l.tags.(k) l.frames.(k);
      if l.head < l.tail then Engine.slot_arm (Option.get l.slot) ~delay:l.interval
    end
  in
  l.slot <- Some (Engine.slot_create engine service);
  l

let lease_offer l tag v =
  if lease_backlog l >= l.qcap then begin
    l.drops <- l.drops + 1;
    l.release v
  end
  else begin
    if Array.length l.frames = 0 then l.frames <- Array.make l.qcap v;
    let k = l.tail mod l.qcap in
    l.frames.(k) <- v;
    l.tags.(k) <- tag;
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
        if rebalanced && b > 0 then l.base_rate + (!spare * b / !total_backlog) else l.base_rate
      in
      l.interval <- max l.svc (l.barrier / max 1 rate);
      l.serviced <- 0)
    leases;
  rebalanced

(* ---- endpoints ---- *)

(* The endpoints of every flow speaking one protocol, by slot, behind
   one set of closures: dispatch costs a closure per group, not per
   flow. The arrays are sized by the first endpoint built, which
   supplies the filler. *)
type group = {
  build :
    int ->
    Engine.t ->
    Proto_config.t ->
    tx:(Wire.data -> unit) ->
    next_payload:(unit -> string option) ->
    ack_tx:(Wire.ack -> unit) ->
    deliver:(string -> unit) ->
    unit;
  on_data : int -> Wire.data -> unit;
  on_ack : int -> Wire.ack -> unit;
  pump : int -> unit;
  sender_done : int -> bool;
  clamp : int -> int -> unit;
  mem_bytes : int -> int;
  retransmissions : int -> int;
  pressure_drops : int -> int;
  resync_rounds : int -> int;
  crash : int -> Crash_plan.endpoint -> unit;
  restart : int -> Crash_plan.endpoint -> unit;
}

let make_group (module P : Protocol.S) count =
  let senders = ref [||] and receivers = ref [||] in
  let fill arr k v =
    if Array.length !arr = 0 then arr := Array.make count v;
    !arr.(k) <- v
  in
  let s k = !senders.(k) and r k = !receivers.(k) in
  {
    build =
      (fun k engine config ~tx ~next_payload ~ack_tx ~deliver ->
        (* sender before receiver: creation order fixes event order *)
        fill senders k (P.create_sender engine config ~tx ~next_payload);
        fill receivers k (P.create_receiver engine config ~tx:ack_tx ~deliver));
    on_data = (fun k d -> P.receiver_on_data (r k) d);
    on_ack = (fun k a -> P.sender_on_ack (s k) a);
    pump = (fun k -> P.sender_pump (s k));
    sender_done = (fun k -> P.sender_done (s k));
    clamp = (fun k w -> P.sender_clamp_window (s k) w);
    mem_bytes = (fun k -> P.sender_mem_bytes (s k) + P.receiver_mem_bytes (r k));
    retransmissions = (fun k -> P.sender_retransmissions (s k));
    pressure_drops = (fun k -> P.receiver_pressure_dropped (r k));
    resync_rounds = (fun k -> P.sender_resync_rounds (s k) + P.receiver_resync_rounds (r k));
    crash =
      (fun k -> function
        | Crash_plan.Sender_end -> P.sender_crash (s k)
        | Crash_plan.Receiver_end -> P.receiver_crash (r k));
    restart =
      (fun k -> function
        | Crash_plan.Sender_end -> P.sender_restart (s k)
        | Crash_plan.Receiver_end -> P.receiver_restart (r k));
  }

(* ---- the cell ---- *)

(* Per-flow counters, [stride] ints per flow in [st]. *)
let k_delivered = 0
let k_next_expected = 1
let k_next_msg = 2
let k_duplicates = 3
let k_misordered = 4
let k_corrupted = 5
let k_data_sent = 6
let k_acks_sent = 7
let k_retx_bytes = 8
let k_crashes = 9
let k_restarts = 10
let k_completed_at = 11  (* -1 until the flow completes *)
let k_departed_at = 12  (* -1 unless the flow left mid-transfer *)
let k_gate = 13  (* 0 open, 1 quarantined, 2 closed at its stop_at *)
let stride = 14

type t = {
  engine : Engine.t;
  data_link : Wire.data Link.t;
  ack_link : Wire.ack Link.t;
  data_lease : Wire.data lease option;
  ack_lease : Wire.ack lease option;
  specs : spec array;  (* admitted flows, receiver budgets clamped *)
  refused : int;
  clamp : int option;
  deadline : int;
  wseed : int -> int;  (* workload seed of flow i *)
  msg_base : int array;  (* flow i owns message slots [msg_base.(i), msg_base.(i+1)) *)
  st : int array;
  seen : Bitset.t;  (* slot delivered *)
  sent_once : Bitset.t;  (* slot transmitted *)
  lat : int array;  (* slot's pull tick, then its latency once delivered *)
  pulled : string array;  (* slot's payload from pull to first delivery, else "" *)
  sketch : Qsketch.t option;  (* every latency, in delivery order *)
  group : group array;  (* flow i's protocol group ... *)
  gslot : int array;  (* ... and its slot there *)
  pending : (int, int list) Hashtbl.t;  (* flow's restarts not yet followed by progress *)
  resync : (int, Stats.t) Hashtbl.t;  (* per-flow restart recovery times *)
  dogs : Watchdog.t array;
  mutable remaining : int;
  mutable done_at : int;  (* -1 while some flow is still running *)
  mutable mem_peak : int;
}

let get c i k = c.st.((i * stride) + k)
let set c i k v = c.st.((i * stride) + k) <- v
let add c i k v = set c i k (get c i k + v)
let running c i = get c i k_gate < 2
let gated c i = get c i k_gate > 0
let engine c = c.engine
let data_link c = c.data_link
let ack_link c = c.ack_link
let data_lease c = c.data_lease
let ack_lease c = c.ack_lease
let flows c = Array.length c.specs
let refused c = c.refused
let clamp c = c.clamp
let deadline c = c.deadline
let remaining c = c.remaining
let done_at c = c.done_at
let mem_peak c = c.mem_peak
let sketch c = c.sketch
let departed c i = get c i k_departed_at >= 0

let is_complete c i =
  get c i k_delivered >= c.specs.(i).messages && c.group.(i).sender_done c.gslot.(i)

let finish c =
  c.remaining <- c.remaining - 1;
  if c.remaining = 0 then begin
    c.done_at <- Engine.now c.engine;
    Engine.stop c.engine
  end

(* Ticks-to-resync: every restart opens a recovery interval that the
   flow's next new delivery (or its completion) closes. *)
let resolve_restarts c i ~now =
  match if Hashtbl.length c.pending = 0 then None else Hashtbl.find_opt c.pending i with
  | None -> ()
  | Some opened ->
      Hashtbl.remove c.pending i;
      let s =
        match Hashtbl.find_opt c.resync i with
        | Some s -> s
        | None ->
            let s = Stats.create () in
            Hashtbl.add c.resync i s;
            s
      in
      List.iter (fun t0 -> Stats.add s (float_of_int (now - t0))) opened

(* Completion: all payloads delivered and the sender drained. Checked
   after every delivery, ack and sender restart. *)
let check_done c i =
  if running c i && get c i k_completed_at < 0 && is_complete c i then begin
    let now = Engine.now c.engine in
    set c i k_completed_at now;
    resolve_restarts c i ~now;
    finish c
  end

(* A payload is checked against the copy its sender pulled while that
   copy is still in flight, and regenerated from the workload after. *)
let valid c i k m payload =
  let sp = c.specs.(i) in
  let pulled = c.pulled.(m) in
  if String.length pulled > 0 then String.equal pulled payload
  else Workload.matches ~seed:(c.wseed i) ~size:sp.payload_size k payload

let deliver c i payload =
  let k = Workload.index payload in
  let m = c.msg_base.(i) + k in
  if k < 0 || k >= c.specs.(i).messages || not (valid c i k m payload) then
    add c i k_corrupted 1
  else begin
    if Bitset.mem c.seen m then add c i k_duplicates 1
    else begin
      Bitset.set c.seen m;
      c.pulled.(m) <- "";
      add c i k_delivered 1;
      let now = Engine.now c.engine in
      resolve_restarts c i ~now;
      let t0 = c.lat.(m) in
      if t0 >= 0 then begin
        c.lat.(m) <- now - t0;
        match c.sketch with Some q -> Qsketch.add q (float_of_int (now - t0)) | None -> ()
      end;
      if k <> get c i k_next_expected then add c i k_misordered 1;
      set c i k_next_expected (k + 1)
    end
  end;
  check_done c i

let next_payload c i =
  let k = get c i k_next_msg and sp = c.specs.(i) in
  if k >= sp.messages then None
  else begin
    set c i k_next_msg (k + 1);
    let m = c.msg_base.(i) + k and p = Workload.payload ~seed:(c.wseed i) ~size:sp.payload_size k in
    c.lat.(m) <- Engine.now c.engine;
    c.pulled.(m) <- p;
    Some p
  end

(* Workload payloads are unique per message, so a second transmission
   of the same index is a retransmitted copy. Handshake frames carry no
   payload and are excluded, as are payloads outside the flow's
   workload. *)
let offer_data c i d =
  add c i k_data_sent 1;
  (match d.Wire.dkind with
  | Wire.Msg ->
      let k = Workload.index d.Wire.payload in
      if k >= 0 && k < c.specs.(i).messages then begin
        let m = c.msg_base.(i) + k in
        if Bitset.mem c.sent_once m then add c i k_retx_bytes (Wire.data_bytes d)
        else Bitset.set c.sent_once m
      end
  | Wire.Sync_req | Wire.Sync_fin -> ());
  if gated c i then Wire.release_data d
  else
    match c.data_lease with
    | Some l -> lease_offer l i d
    | None -> Link.send_tagged c.data_link i d

let offer_ack c i a =
  add c i k_acks_sent 1;
  if gated c i then Wire.release_ack a
  else
    match c.ack_lease with
    | Some l -> lease_offer l i a
    | None -> Link.send_tagged c.ack_link i a

let on_data c i d = if running c i then c.group.(i).on_data c.gslot.(i) d

let on_ack c i a =
  if running c i then begin
    c.group.(i).on_ack c.gslot.(i) a;
    check_done c i
  end

let sample_mem c =
  let total = ref 0 in
  for i = 0 to flows c - 1 do
    if running c i then total := !total + c.group.(i).mem_bytes c.gslot.(i)
  done;
  if !total > c.mem_peak then c.mem_peak <- !total

(* ---- crash–restart ---- *)

let crash c i e =
  add c i k_crashes 1;
  c.group.(i).crash c.gslot.(i) e

let restart c i (e : Crash_plan.endpoint) =
  add c i k_restarts 1;
  let opened = Option.value ~default:[] (Hashtbl.find_opt c.pending i) in
  Hashtbl.replace c.pending i (Engine.now c.engine :: opened);
  c.group.(i).restart c.gslot.(i) e;
  match e with Crash_plan.Sender_end -> check_done c i | Crash_plan.Receiver_end -> ()

let crash_tolerant c i =
  let (module P : Protocol.S) = c.specs.(i).protocol in
  P.crash_tolerant

(* The watchdog's recovery lever: wipe the sender's volatile state and
   let REQ/POS/FIN re-establish the window at the receiver's
   authoritative position. Protocols without a crash lifecycle have no
   such lever. *)
let resync c i =
  if crash_tolerant c i then begin
    crash c i Crash_plan.Sender_end;
    restart c i Crash_plan.Sender_end
  end

let schedule_crashes c i plan =
  if crash_tolerant c i then
    List.iter
      (fun (e : Crash_plan.event) ->
        ignore (Engine.schedule_at c.engine ~at:e.at (fun () -> crash c i e.endpoint));
        ignore
          (Engine.schedule_at c.engine ~at:(e.at + e.down_for) (fun () ->
               restart c i e.endpoint)))
      plan

(* ---- construction ---- *)

let create ~engine_seed ~wseed ~data_loss ~ack_loss ~data_delay ~ack_delay ?data_bottleneck
    ?ack_bottleneck ?lease ?data_plan ?ack_plan ?budget ?watchdog ?(sketch = false) specs =
  let specs, refused, clamp =
    match budget with
    | None -> (specs, 0, None)
    | Some budget -> plan_admission ~budget specs
  in
  (* The clamp is enforced twice over: the sender's effective window is
     capped and the receiver's reassembly budget is rewritten to match,
     so even a misbehaving sender cannot pin more than the accounted
     slots. *)
  let clamp_rx s =
    match clamp with
    | Some c when c < s.config.Proto_config.window ->
        let rx = Option.value ~default:s.config.Proto_config.window s.config.rx_budget in
        { s with config = { s.config with rx_budget = Some (min c rx) } }
    | Some _ | None -> s
  in
  let specs = Array.of_list (if clamp = None then specs else List.map clamp_rx specs) in
  let n = Array.length specs in
  let msg_base = Array.make (n + 1) 0 in
  Array.iteri (fun i s -> msg_base.(i + 1) <- msg_base.(i) + s.messages) specs;
  let total_msgs = msg_base.(n) in
  let engine = Engine.create ~seed:engine_seed () in
  (* The links are built before the cell their deliveries feed. *)
  let self = ref None in
  let arrive f i x = match !self with Some c -> f c i x | None -> () in
  (* Under [lease] the bottlenecks become per-cell leases (below) and
     the links themselves are uncontended. *)
  let link ~loss ~delay ~bottleneck ~corrupt ~release ~deliver =
    Link.create_tagged engine ~loss ~delay
      ?bottleneck:(if lease = None then bottleneck else None)
      ~corrupt ~release ~deliver:(arrive deliver) ()
  in
  let data_link =
    link ~loss:data_loss ~delay:data_delay ~bottleneck:data_bottleneck
      ~corrupt:Wire.corrupt_data ~release:Wire.release_data ~deliver:on_data
  in
  let ack_link =
    link ~loss:ack_loss ~delay:ack_delay ~bottleneck:ack_bottleneck ~corrupt:Wire.corrupt_ack
      ~release:Wire.release_ack ~deliver:on_ack
  in
  (* Plans split their link's random stream only when given, so
     plan-free runs keep their exact event sequence. *)
  Option.iter (Link.set_plan data_link) data_plan;
  Option.iter (Link.set_plan ack_link) ack_plan;
  (* A cell's lease is its flow-count share of the shared link's rate,
     at least one frame per epoch, and of its queue, at least 4 slots. *)
  let mk_lease cap ~send ~release =
    match (lease, cap) with
    | Some (barrier, total_flows), Some (svc, qcap) ->
        let svc = max 1 svc in
        let base_rate = max 1 (barrier / svc * n / max 1 total_flows) in
        let qshare = max 4 (qcap * n / max 1 total_flows) in
        Some (make_lease engine ~svc ~barrier ~qcap:qshare ~base_rate ~send ~release)
    | _ -> None
  in
  let data_lease =
    mk_lease data_bottleneck ~send:(Link.send_tagged data_link) ~release:Wire.release_data
  in
  let ack_lease =
    mk_lease ack_bottleneck ~send:(Link.send_tagged ack_link) ~release:Wire.release_ack
  in
  (* Group flows by protocol; groups and slots are numbered in spec
     order. *)
  let names = Hashtbl.create 4 and protos = ref [] in
  let group_of =
    Array.map
      (fun s ->
        let (module P : Protocol.S) = s.protocol in
        match Hashtbl.find_opt names P.name with
        | Some g -> g
        | None ->
            let g = Hashtbl.length names in
            Hashtbl.add names P.name g;
            protos := s.protocol :: !protos;
            g)
      specs
  in
  let counts = Array.make (List.length !protos) 0 in
  let gslot =
    Array.map
      (fun g ->
        counts.(g) <- counts.(g) + 1;
        counts.(g) - 1)
      group_of
  in
  let groups = Array.mapi (fun g p -> make_group p counts.(g)) (Array.of_list (List.rev !protos)) in
  let st = Array.make (n * stride) 0 in
  for i = 0 to n - 1 do
    st.((i * stride) + k_completed_at) <- -1;
    st.((i * stride) + k_departed_at) <- -1
  done;
  let max_rto = Array.fold_left (fun acc s -> max acc s.config.Proto_config.rto) 1 specs in
  let c =
    {
      engine;
      data_link;
      ack_link;
      data_lease;
      ack_lease;
      specs;
      refused;
      clamp;
      (* Generous, and scaled to the aggregate workload: the links
         serialise every flow's traffic, and every message could need
         several timeouts at heavy loss before the run is declared
         stuck. *)
      deadline = (max 1 total_msgs * max_rto * 20) + 1_000_000;
      wseed;
      msg_base;
      st;
      seen = Bitset.create ~initial_capacity:(max 1 total_msgs) ();
      sent_once = Bitset.create ~initial_capacity:(max 1 total_msgs) ();
      lat = Array.make (max 1 total_msgs) (-1);
      pulled = Array.make (max 1 total_msgs) "";
      sketch = (if sketch then Some (Qsketch.create ()) else None);
      group = Array.map (fun g -> groups.(g)) group_of;
      gslot;
      pending = Hashtbl.create 1;
      resync = Hashtbl.create 1;
      dogs =
        (match watchdog with None -> [||] | Some w -> Array.init n (fun _ -> Watchdog.create w));
      remaining = n;
      done_at = -1;
      mem_peak = 0;
    }
  in
  self := Some c;
  Array.iteri
    (fun i s ->
      c.group.(i).build c.gslot.(i) engine s.config
        ~tx:(fun d -> offer_data c i d)
        ~next_payload:(fun () -> next_payload c i)
        ~ack_tx:(fun a -> offer_ack c i a)
        ~deliver:(fun p -> deliver c i p);
      Option.iter (c.group.(i).clamp c.gslot.(i)) clamp)
    specs;
  (* Departures: at stop_at the flow is closed whether or not it
     finished; its frames are gated off the links, nothing reaches it
     any more and its buffered bytes stop counting. *)
  Array.iteri
    (fun i s ->
      Option.iter
        (fun d ->
          ignore
            (Engine.schedule_at engine ~at:d (fun () ->
                 if running c i then begin
                   set c i k_gate 2;
                   if get c i k_completed_at < 0 then begin
                     set c i k_departed_at d;
                     finish c
                   end
                 end)))
        s.stop_at)
    specs;
  (* Admission is a static worst-case guarantee; sampling observes what
     actually happened. Armed only when someone is accounting, so
     budget-free runs keep their exact event sequence. *)
  let every delay f =
    let rec tick () =
      f ();
      if c.remaining > 0 then ignore (Engine.schedule engine ~delay tick)
    in
    ignore (Engine.schedule engine ~delay tick)
  in
  (match (watchdog, budget) with
  | Some w, _ ->
      every w.Watchdog.check_interval (fun () ->
          sample_mem c;
          for i = 0 to n - 1 do
            if running c i && specs.(i).start_at <= Engine.now engine then
              match
                Watchdog.observe c.dogs.(i) ~delivered:(get c i k_delivered)
                  ~completed:(is_complete c i)
              with
              | Watchdog.Nothing -> ()
              | Watchdog.Resync -> resync c i
              | Watchdog.Quarantine -> set c i k_gate 1
              | Watchdog.Release ->
                  set c i k_gate 0;
                  resync c i
          done)
  | None, Some _ -> every 500 (fun () -> sample_mem c)
  | None, None -> ());
  c

(* Surge flows exist from tick 0 — creation order fixes determinism —
   but only offer traffic from their start tick. *)
let start c =
  Array.iteri
    (fun i s ->
      let pump () = c.group.(i).pump c.gslot.(i) in
      if s.start_at = 0 then pump () else ignore (Engine.schedule_at c.engine ~at:s.start_at pump))
    c.specs

(* ---- verdicts ---- *)

type tally = {
  messages : int;
  delivered : int;
  duplicates : int;
  misordered : int;
  corrupted : int;
  completed_flows : int;
  departed : int;
  data_sent : int;
  acks_sent : int;
  retransmissions : int;
  pressure_drops : int;
  quarantine_events : int;
  watchdog_resyncs : int;
  quarantined : int;
  all_ended : bool;
}

let tally c =
  let sum f =
    let acc = ref 0 in
    for i = 0 to flows c - 1 do
      acc := !acc + f i
    done;
    !acc
  in
  let field k = sum (fun i -> get c i k) in
  let marked k = sum (fun i -> Bool.to_int (get c i k >= 0)) in
  let dogs f = Array.fold_left (fun a d -> a + f d) 0 c.dogs in
  {
    messages = c.msg_base.(flows c);
    delivered = field k_delivered;
    duplicates = field k_duplicates;
    misordered = field k_misordered;
    corrupted = field k_corrupted;
    completed_flows = marked k_completed_at;
    departed = marked k_departed_at;
    data_sent = field k_data_sent;
    acks_sent = field k_acks_sent;
    retransmissions = sum (fun i -> c.group.(i).retransmissions c.gslot.(i));
    pressure_drops = sum (fun i -> c.group.(i).pressure_drops c.gslot.(i));
    quarantine_events = dogs Watchdog.quarantine_events;
    watchdog_resyncs = dogs Watchdog.resync_events;
    quarantined = dogs (fun d -> Bool.to_int (Watchdog.state d = Watchdog.Quarantined));
    all_ended = marked k_completed_at + marked k_departed_at = flows c;
  }

let summary s = if Stats.count s = 0 then None else Some (Stats.summary s)

let flow_result c i =
  let sp = c.specs.(i) in
  let (module P : Protocol.S) = sp.protocol in
  (* A flow is judged over its own tenancy — from its start tick to
     completion (or departure, or the end of the run) — so slow
     neighbours don't dilute its goodput and a late arrival isn't
     charged for ticks before it existed. *)
  let upto =
    let completed_at = get c i k_completed_at and departed_at = get c i k_departed_at in
    if completed_at >= 0 then completed_at
    else if departed_at >= 0 then departed_at
    else Engine.now c.engine
  in
  let ticks = max 1 (upto - sp.start_at) in
  (* Exact latencies, read back from the slots delivery overwrote. For a
     flow that delivers in order, message order is delivery order. *)
  let latency = Stats.create () in
  for m = c.msg_base.(i) to c.msg_base.(i + 1) - 1 do
    if Bitset.mem c.seen m && c.lat.(m) >= 0 then Stats.add latency (float_of_int c.lat.(m))
  done;
  (* A restart no delivery ever resolved (a stuck run, or a crash with
     nothing left to deliver) is charged up to the flow's end — honest,
     if pessimistic. *)
  resolve_restarts c i ~now:upto;
  let delivered = get c i k_delivered in
  let data_sent = get c i k_data_sent and acks_sent = get c i k_acks_sent in
  let payload_bytes = delivered * sp.payload_size in
  let k = c.gslot.(i) and g = c.group.(i) in
  {
    Flow.protocol = P.name;
    completed = is_complete c i;
    ticks;
    messages = sp.messages;
    delivered;
    duplicates = get c i k_duplicates;
    misordered = get c i k_misordered;
    corrupted = get c i k_corrupted;
    data_sent;
    data_dropped = 0;
    data_queue_dropped = 0;
    data_reordered = 0;
    data_duplicated = 0;
    data_corrupted = 0;
    data_outage_drops = 0;
    acks_sent;
    acks_dropped = 0;
    acks_corrupted = 0;
    ack_outage_drops = 0;
    retransmissions = g.retransmissions k;
    goodput = float_of_int delivered *. 1000. /. float_of_int ticks;
    latency = summary latency;
    latencies = Stats.samples latency;
    ack_overhead =
      (if payload_bytes = 0 then 0.
       else float_of_int (acks_sent * P.ack_wire_bytes) /. float_of_int payload_bytes);
    efficiency = (if data_sent = 0 then 0. else float_of_int delivered /. float_of_int data_sent);
    crashes = get c i k_crashes;
    restarts = get c i k_restarts;
    resync_rounds = g.resync_rounds k;
    resync_ticks = Option.bind (Hashtbl.find_opt c.resync i) summary;
    retx_bytes = get c i k_retx_bytes;
    pressure_drops = g.pressure_drops k;
  }
