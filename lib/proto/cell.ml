(* One simulation cell: an engine, a data link, an ack link and the
   endpoints of every flow they carry, plus the per-flow accounting that
   turns deliveries into verdicts. Harness runs one flow in a cell,
   Fabric runs all its flows in one cell, Shard runs many cells in
   lockstep epochs.

   Flows share the links; each frame travels with its flow index in the
   link's arena tag column, so the tag costs no allocation and faults
   mangle frames, never the demultiplexing. Per-flow state is flat: one
   strided int array of counters, prefix offsets into cell-wide flight
   rings, and per-protocol endpoint arrays packed with their protocol's
   module. Nothing is sized by the transfer. *)

module Engine = Ba_sim.Engine
module Link = Ba_channel.Link
module Stats = Ba_util.Stats
module Qsketch = Ba_util.Qsketch
module Counters = Ba_util.Counters
module Columns = Ba_util.Column_pool

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
      if s.messages < 0 then invalid_arg (who ^ ": messages must be >= 0");
      if s.payload_size < 0 then invalid_arg (who ^ ": payload_size must be >= 0");
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

(* Peak concurrent cost of the first [k] flows of [a] under the
   interval model: a flow pins memory only while its [start_at,
   stop_at) interval is open, so the budget must cover the worst
   instant, not the lifetime sum. The concurrent total only steps up at
   interval starts, so the peak is the largest total just after a
   start. One sweep over the starts and stops in time order finds it,
   stops first at a tie (a flow is not active at its [stop_at]); with
   no [stop_at] anywhere the peak equals the plain sum. *)
let peak_cost ~clamp a k =
  let events = Array.make (2 * k) (0, 0) in
  for i = 0 to k - 1 do
    let s = a.(i) in
    let cost = flow_cost s ~clamp in
    events.(2 * i) <- ((2 * s.start_at) + 1, cost);
    events.((2 * i) + 1) <-
      (match s.stop_at with Some d -> (2 * d, -cost) | None -> (max_int, 0))
  done;
  Array.sort compare events;
  let total = ref 0 and peak = ref 0 in
  Array.iter
    (fun (key, delta) ->
      total := !total + delta;
      if key land 1 = 1 && !total > !peak then peak := !total)
    events;
  !peak

(* Graceful degradation, in preference order: admit everyone unclamped;
   else admit everyone under the largest uniform window clamp that
   fits; else clamp to 1 and admit the longest spec prefix that fits,
   refusing the rest. "Fits" is the peak-concurrency test above, so a
   departing flow's reservation is reusable by any arrival scheduled
   after its [stop_at]. *)
let check_budget ~budget specs =
  match specs with
  | s :: _ when flow_cost s ~clamp:1 > budget ->
      invalid_arg "Fabric.run: memory_budget admits no flow"
  | _ -> ()

type admission = {
  admitted : spec list;
  refused : int;
  clamp : int option;
  budgeted : bool;
  horizon : int;
}

(* Generous, and scaled to the aggregate workload: the links serialise
   every flow's traffic, and every message could need several timeouts
   at heavy loss before the run is declared stuck. *)
let horizon_of admitted =
  let msgs = List.fold_left (fun acc s -> acc + s.messages) 0 admitted in
  let max_rto = List.fold_left (fun acc s -> max acc s.config.Proto_config.rto) 1 admitted in
  (max 1 msgs * max_rto * 20) + 1_000_000

(* The clamp is enforced twice over: the sender's effective window is
   capped and the receiver's reassembly budget is rewritten to match,
   so even a misbehaving sender cannot pin more than the accounted
   slots. *)
let clamp_rx c s =
  if c < s.config.Proto_config.window then
    let rx = Option.value ~default:s.config.Proto_config.window s.config.rx_budget in
    { s with config = { s.config with rx_budget = Some (min c rx) } }
  else s

let admission ?budget specs =
  match budget with
  | None -> { admitted = specs; refused = 0; clamp = None; budgeted = false; horizon = horizon_of specs }
  | Some budget ->
      check_budget ~budget specs;
      let a = Array.of_list specs in
      let n = Array.length a in
      let fits ~clamp k = peak_cost ~clamp a k <= budget in
      let admitted, refused, clamp =
        if fits ~clamp:1 n then begin
          let max_w = Array.fold_left (fun acc s -> max acc s.config.Proto_config.window) 1 a in
          let rec fit c = if c > 1 && not (fits ~clamp:c n) then fit (c - 1) else c in
          let c = fit max_w in
          (specs, 0, if c < max_w then Some c else None)
        end
        else begin
          (* The peak never falls as the prefix grows, the first flow
             fits ([check_budget]) and all of them do not: bisect for
             the longest prefix that fits. *)
          let rec longest fit nofit =
            if nofit - fit <= 1 then fit
            else
              let mid = (fit + nofit) / 2 in
              if fits ~clamp:1 mid then longest mid nofit else longest fit mid
          in
          let k = longest 1 n in
          (List.filteri (fun i _ -> i < k) specs, n - k, Some 1)
        end
      in
      {
        admitted;
        refused;
        clamp;
        budgeted = true;
        horizon = horizon_of admitted;
      }

(* ---- endpoints ---- *)

(* The endpoints of every flow speaking one protocol, by slot, packed
   with the protocol's module: a dispatch unpacks the group and calls
   [P] directly, so it allocates nothing. The arrays are sized when the
   first endpoint is built; every slot is built before any is read. *)
type group =
  | Group : {
      p : (module Protocol.S with type sender = 's and type receiver = 'r);
      mutable senders : 's array;
      mutable receivers : 'r array;
    }
      -> group

let group (module P : Protocol.S) = Group { p = (module P); senders = [||]; receivers = [||] }

(* Slot [k]'s endpoints, sender before receiver (creation order fixes
   event order), the sender's window capped at [clamp] when its
   protocol takes a clamp. *)
let build (Group g) k ~count ~clamp engine config ~tx ~next_payload ~ack_tx ~deliver =
  let (module P) = g.p in
  let s = P.create_sender engine config ~tx ~next_payload in
  let r = P.create_receiver engine config ~tx:ack_tx ~deliver in
  if Array.length g.senders = 0 then begin
    g.senders <- Columns.blank count;
    g.receivers <- Columns.blank count
  end;
  g.senders.(k) <- s;
  g.receivers.(k) <- r;
  match (clamp, P.overload) with Some w, Some o -> o.sender_clamp_window s w | _ -> ()

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
let k_resync_rounds = 11  (* REQ and FIN frames offered to the data link, POS to the ack link *)
let k_completed_at = 12  (* -1 until the flow completes *)
let k_departed_at = 13  (* -1 unless the flow left mid-transfer *)
let k_gate = 14  (* 0 open, 1 quarantined, 2 closed at its stop_at *)
let stride = 15

type t = {
  engine : Engine.t;
  data_link : Wire.data Link.t;
  ack_link : Wire.ack Link.t;
  specs : spec array;  (* admitted flows, receiver budgets clamped *)
  refused : int;
  clamp : int option;
  deadline : int;
  wseed : int -> int;  (* workload seed of flow i *)
  mutable msg_base : int array;  (* flow i's messages are [msg_base.(i), msg_base.(i+1)) cell-wide *)
  mutable ring_base : int array;  (* flow i owns ring slots [ring_base.(i), ring_base.(i+1)); may be [msg_base] *)
  mutable st : int array;  (* empty once retired *)
  mutable pull_tick : int array;  (* ring slot's pull tick, complemented once the message is sent *)
  pulled : string array;  (* ring slot's payload from pull to first delivery, else "" *)
  spill : (int, int * string) Hashtbl.t;  (* message -> pull that lapped its ring undelivered *)
  mutable spilled : int;  (* pulls ever moved to [spill] *)
  sketch : Qsketch.t option;  (* every latency, in delivery order *)
  latency : Stats.t option array;  (* without a sketch: flow's latencies, from its first delivery *)
  group : group array;  (* flow i's protocol group ... *)
  mutable gslot : int array;  (* ... and its slot there *)
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
let flows c = Array.length c.specs
let clamp c = c.clamp
let deadline c = c.deadline
let remaining c = c.remaining
let done_at c = c.done_at
let mem_peak c = c.mem_peak
let sketch c = c.sketch
let spilled c = c.spilled
let departed c i = get c i k_departed_at >= 0

let sender_done c i =
  match c.group.(i) with Group { p = (module P); senders; _ } -> P.sender_done senders.(c.gslot.(i))

let is_complete c i = get c i k_delivered >= c.specs.(i).messages && sender_done c i

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
            let s = Stats.create (List.length opened) in
            Hashtbl.add c.resync i s;
            s
      in
      List.iter (fun t0 -> Stats.add s (now - t0)) opened

(* Completion: all payloads delivered and the sender drained. Checked
   after every delivery, ack and sender restart. *)
let check_done c i =
  if running c i && get c i k_completed_at < 0 && is_complete c i then begin
    let now = Engine.now c.engine in
    set c i k_completed_at now;
    resolve_restarts c i ~now;
    finish c
  end

(* ---- the flight rings ----

   Each flow's pulled-but-undelivered payloads, with their pull ticks,
   sit in a ring of [min messages (2 * window)] slots: message [k] in
   slot [k mod capacity]. A slot belongs to the message its payload
   names ([Workload.index]), so no key column is needed, and delivery
   empties it. A pull that laps a slot still holding an undelivered
   message parks that message's pull in the cell-wide [spill] table, so
   verdicts and latencies stay exact for every flow. A correct
   protocol's undelivered pulls lie in its sender's band [na, ns), so a
   band of at most 2w never laps; only a wider band, or a broken
   protocol that delivers something else in a message's place and moves
   on, gets there.

   The ring and the spill table are all the per-message state there is.
   A message is delivered iff it was pulled ([k < k_next_msg]) and its
   pull is no longer pending in either. A pull tick is stored as is
   until the message is first offered to the link and complemented from
   then on, so its sign is the "sent" mark and travels into [spill] with
   it. *)

let ring_slot c i k =
  let base = c.ring_base.(i) in
  base + (k mod (c.ring_base.(i + 1) - base))

(* The slot holding message [k]'s undelivered pull, or -1: a slot
   index, not an option, so delivery allocates nothing. *)
let in_ring c i k =
  let s = ring_slot c i k in
  let p = c.pulled.(s) in
  if String.length p > 0 && Workload.index p = k then s else -1

let spilled_pull c m = if Hashtbl.length c.spill = 0 then None else Hashtbl.find_opt c.spill m
let tick_of t = if t < 0 then lnot t else t

(* A payload is checked against the copy its sender pulled while that
   copy is still in flight (ring slot [s], or [spilled]), and
   regenerated from the workload after. *)
let valid c i k s spilled payload =
  if s >= 0 then String.equal c.pulled.(s) payload
  else
    match spilled with
    | Some (_, p) -> String.equal p payload
    | None -> Workload.matches ~seed:(c.wseed i) ~size:c.specs.(i).payload_size k payload

(* Message [m]'s pull tick, its pull consumed by the first delivery; -1
   for a message never pulled. *)
let take_pull c m s spilled =
  if s >= 0 then begin
    c.pulled.(s) <- "";
    tick_of c.pull_tick.(s)
  end
  else
    match spilled with
    | Some (t0, _) ->
        Hashtbl.remove c.spill m;
        tick_of t0
    | None -> -1

let record_latency c i dt =
  match c.sketch with
  | Some q -> Qsketch.add_int q dt
  | None ->
      let s =
        match c.latency.(i) with
        | Some s -> s
        | None ->
            (* Sized once: a completed flow records exactly one sample
               per message, so the column never grows. *)
            let s = Stats.create c.specs.(i).messages in
            c.latency.(i) <- Some s;
            s
      in
      Stats.add s dt

let deliver c i payload =
  let k = Workload.index payload in
  if k < 0 || k >= c.specs.(i).messages then add c i k_corrupted 1
  else begin
    let m = c.msg_base.(i) + k and s = in_ring c i k in
    let spilled = if s >= 0 then None else spilled_pull c m in
    if not (valid c i k s spilled payload) then add c i k_corrupted 1
    else if s < 0 && Option.is_none spilled && k < get c i k_next_msg then
      add c i k_duplicates 1
    else begin
      add c i k_delivered 1;
      let now = Engine.now c.engine in
      resolve_restarts c i ~now;
      let t0 = take_pull c m s spilled in
      if t0 >= 0 then record_latency c i (now - t0);
      if k <> get c i k_next_expected then add c i k_misordered 1;
      set c i k_next_expected (k + 1)
    end
  end;
  check_done c i

let next_payload c i =
  let k = get c i k_next_msg and sp = c.specs.(i) in
  if k >= sp.messages then raise_notrace Protocol.Exhausted
  else begin
    set c i k_next_msg (k + 1);
    let s = ring_slot c i k and p = Workload.payload ~seed:(c.wseed i) ~size:sp.payload_size k in
    let lapped = c.pulled.(s) in
    if String.length lapped > 0 then begin
      c.spilled <- c.spilled + 1;
      Hashtbl.replace c.spill (c.msg_base.(i) + Workload.index lapped) (c.pull_tick.(s), lapped)
    end;
    c.pull_tick.(s) <- Engine.now c.engine;
    c.pulled.(s) <- p;
    p
  end

(* Workload payloads are unique per message, so a second transmission
   of the same index is a retransmitted copy: its pull is already
   consumed by a delivery, or carries the sent mark. Payloads outside
   the flow's workload are not counted. *)
let note_sent c i d =
  let k = Workload.index d.Wire.payload in
  if k >= 0 && k < c.specs.(i).messages then begin
    let s = in_ring c i k and m = c.msg_base.(i) + k in
    let resent =
      if s >= 0 then begin
        let t = c.pull_tick.(s) in
        if t >= 0 then c.pull_tick.(s) <- lnot t;
        t < 0
      end
      else
        match spilled_pull c m with
        | Some (t, p) ->
            if t >= 0 then Hashtbl.replace c.spill m (lnot t, p);
            t < 0
        | None -> k < get c i k_next_msg
    in
    if resent then add c i k_retx_bytes (Wire.data_bytes d)
  end

let offer_data c i d =
  add c i k_data_sent 1;
  (match d.Wire.dkind with
  | Wire.Msg -> note_sent c i d
  | Wire.Sync_req | Wire.Sync_fin -> add c i k_resync_rounds 1);
  if gated c i then Wire.release_data d else Link.send_tagged c.data_link i d

let offer_ack c i a =
  add c i k_acks_sent 1;
  (match a.Wire.akind with Wire.Sync_pos -> add c i k_resync_rounds 1 | Wire.Ack -> ());
  if gated c i then Wire.release_ack a else Link.send_tagged c.ack_link i a

let on_data c i d =
  if running c i then
    match c.group.(i) with
    | Group { p = (module P); receivers; _ } -> P.receiver_on_data receivers.(c.gslot.(i)) d

let on_ack c i a =
  if running c i then begin
    (match c.group.(i) with
    | Group { p = (module P); senders; _ } -> P.sender_on_ack senders.(c.gslot.(i)) a);
    check_done c i
  end

(* Payload bytes flow [i]'s endpoints buffer; 0 for a protocol without
   memory accounting. *)
let mem_bytes c i =
  match c.group.(i) with
  | Group { p = (module P); senders; receivers } -> (
      match P.overload with
      | None -> 0
      | Some o ->
          let k = c.gslot.(i) in
          o.sender_mem_bytes senders.(k) + o.receiver_mem_bytes receivers.(k))

let sample_mem c =
  let total = ref 0 in
  for i = 0 to flows c - 1 do
    if running c i then total := !total + mem_bytes c i
  done;
  if !total > c.mem_peak then c.mem_peak <- !total

(* ---- crash–restart ---- *)

(* Flow [i]'s crash lifecycle: a protocol without one has no crash,
   restart or resync lever, and nothing is counted. *)
let has_lifecycle c i =
  match c.group.(i) with Group { p = (module P); _ } -> Option.is_some P.lifecycle

let crash c i e =
  match c.group.(i) with
  | Group { p = (module P); senders; receivers } -> (
      match P.lifecycle with
      | None -> ()
      | Some l -> (
          add c i k_crashes 1;
          let k = c.gslot.(i) in
          match e with
          | Crash_plan.Sender_end -> l.sender_crash senders.(k)
          | Crash_plan.Receiver_end -> l.receiver_crash receivers.(k)))

let restart c i e =
  match c.group.(i) with
  | Group { p = (module P); senders; receivers } -> (
      match P.lifecycle with
      | None -> ()
      | Some l -> (
          add c i k_restarts 1;
          let opened = Option.value ~default:[] (Hashtbl.find_opt c.pending i) in
          Hashtbl.replace c.pending i (Engine.now c.engine :: opened);
          let k = c.gslot.(i) in
          match e with
          | Crash_plan.Sender_end ->
              l.sender_restart senders.(k);
              check_done c i
          | Crash_plan.Receiver_end -> l.receiver_restart receivers.(k)))

(* The watchdog's recovery lever: wipe the sender's volatile state and
   let REQ/POS/FIN re-establish the window at the receiver's
   authoritative position. *)
let resync c i =
  crash c i Crash_plan.Sender_end;
  restart c i Crash_plan.Sender_end

let schedule_crashes c i plan =
  if has_lifecycle c i then
    List.iter
      (fun (e : Crash_plan.event) ->
        Engine.schedule_at c.engine ~at:e.at (fun () -> crash c i e.endpoint);
        Engine.schedule_at c.engine ~at:(e.at + e.down_for) (fun () -> restart c i e.endpoint))
      plan

(* ---- construction ---- *)

let create ~engine_seed ~wseed ~data_loss ~ack_loss ~data_delay ~ack_delay ?data_bottleneck
    ?data_plan ?ack_plan ?watchdog ?(sketch = false) plan =
  (match data_bottleneck with
  | Some (svc, qcap) when svc <= 0 || qcap <= 0 ->
      invalid_arg "Cell.create: bottleneck needs positive service time and queue capacity"
  | Some _ | None -> ());
  let { admitted; refused; clamp; budgeted; horizon = deadline } = plan in
  let specs = Array.of_list admitted in
  Option.iter (fun c -> Array.iteri (fun i s -> specs.(i) <- clamp_rx c s) specs) clamp;
  let n = Array.length specs in
  let msg_base = Columns.take (n + 1) 0 in
  Array.iteri (fun i s -> msg_base.(i + 1) <- msg_base.(i) + s.messages) specs;
  (* Two windows of flight per flow cover every registry protocol's
     band. When every ring spans its whole transfer (short flows, as in
     the sharded fabric) the offsets are the message offsets. *)
  let ring_cap s = min s.messages (2 * s.config.Proto_config.window) in
  let ring_base =
    if Array.for_all (fun s -> ring_cap s = s.messages) specs then msg_base
    else begin
      let b = Columns.take (n + 1) 0 in
      Array.iteri (fun i s -> b.(i + 1) <- b.(i) + ring_cap s) specs;
      b
    end
  in
  let ring_slots = max 1 ring_base.(n) in
  let engine = Engine.create ~seed:engine_seed () in
  (* The links are built before the cell their deliveries feed. *)
  let self = ref None in
  let arrive f i x = match !self with Some c -> f c i x | None -> () in
  let data_link =
    Link.create_tagged engine ~loss:data_loss ~delay:data_delay ?bottleneck:data_bottleneck
      ~corrupt:Wire.corrupt_data ~release:Wire.release_data ~deliver:(arrive on_data) ()
  in
  let ack_link =
    Link.create_tagged engine ~loss:ack_loss ~delay:ack_delay ~corrupt:Wire.corrupt_ack
      ~release:Wire.release_ack ~deliver:(arrive on_ack) ()
  in
  (* Plans split their link's random stream only when given, so
     plan-free runs keep their exact event sequence. *)
  Option.iter (Link.set_plan data_link) data_plan;
  Option.iter (Link.set_plan ack_link) ack_plan;
  (* Group flows by protocol name, so flows whose protocols share a
     name run on the first one's module; groups and slots are numbered
     in spec order. *)
  let names = Hashtbl.create 4 and protos = ref [] in
  let group_of = Columns.take n 0 in
  Array.iteri
    (fun i s ->
      let (module P : Protocol.S) = s.protocol in
      group_of.(i) <-
        (match Hashtbl.find_opt names P.name with
        | Some g -> g
        | None ->
            let g = Hashtbl.length names in
            Hashtbl.add names P.name g;
            protos := group s.protocol :: !protos;
            g))
    specs;
  let counts = Array.make (List.length !protos) 0 in
  let gslot = Columns.take n 0 in
  Array.iteri
    (fun i g ->
      gslot.(i) <- counts.(g);
      counts.(g) <- counts.(g) + 1)
    group_of;
  let groups = Array.of_list (List.rev !protos) in
  let group = Columns.blank n in
  Array.iteri (fun i g -> group.(i) <- groups.(g)) group_of;
  let st = Columns.take (n * stride) 0 in
  for i = 0 to n - 1 do
    st.((i * stride) + k_completed_at) <- -1;
    st.((i * stride) + k_departed_at) <- -1
  done;
  let c =
    {
      engine;
      data_link;
      ack_link;
      specs;
      refused;
      clamp;
      deadline;
      wseed;
      msg_base;
      ring_base;
      st;
      pull_tick = Columns.take ring_slots 0;
      pulled = Array.make ring_slots "";
      spill = Hashtbl.create 1;
      spilled = 0;
      sketch = (if sketch then Some (Qsketch.create ()) else None);
      latency = (if sketch then [||] else Array.make n None);
      group;
      gslot;
      pending = Hashtbl.create 1;
      resync = Hashtbl.create 1;
      dogs =
        (match watchdog with
        | None -> [||]
        | Some w ->
            let dogs = Columns.blank n in
            for i = 0 to n - 1 do
              dogs.(i) <- Watchdog.create w
            done;
            dogs);
      remaining = n;
      done_at = -1;
      mem_peak = 0;
    }
  in
  self := Some c;
  Array.iteri
    (fun i s ->
      (* Flow [i]'s four callbacks, bound together so that they share one
         closure block and one copy of [(c, i)]: 112 B per flow where four
         separate closures took 160. None calls another, hence the
         silenced unused-rec warning. [Protocol.S] takes closures, so the callbacks cannot be
         rows of the cell's flat arrays. *)
      let[@warning "-39"] rec tx d = offer_data c i d
      and pull () = next_payload c i
      and ack_tx a = offer_ack c i a
      and arrive p = deliver c i p in
      build c.group.(i) c.gslot.(i) ~count:counts.(group_of.(i)) ~clamp engine s.config ~tx
        ~next_payload:pull ~ack_tx ~deliver:arrive)
    specs;
  Columns.give_outgrown group_of;
  (* Departures: at stop_at the flow is closed whether or not it
     finished; its frames are gated off the links, nothing reaches it
     any more and its buffered bytes stop counting. *)
  Array.iteri
    (fun i s ->
      Option.iter
        (fun d ->
          Engine.schedule_at engine ~at:d (fun () ->
              if running c i then begin
                set c i k_gate 2;
                if get c i k_completed_at < 0 then begin
                  set c i k_departed_at d;
                  finish c
                end
              end))
        s.stop_at)
    specs;
  (* Admission is a static worst-case guarantee; sampling observes what
     actually happened. Armed only when someone is accounting, so
     budget-free runs keep their exact event sequence. *)
  let every delay f =
    let rec tick () =
      f ();
      if c.remaining > 0 then Engine.schedule engine ~delay tick
    in
    Engine.schedule engine ~delay tick
  in
  (match (watchdog, budgeted) with
  | Some w, _ ->
      every w.Watchdog.check_interval (fun () ->
          sample_mem c;
          for i = 0 to n - 1 do
            if running c i && specs.(i).start_at <= Engine.now engine then
              Watchdog.check c.dogs.(i) ~delivered:(get c i k_delivered)
                ~completed:(is_complete c i)
                ~resync:(fun () -> resync c i)
                ~gate:(fun closed -> set c i k_gate (Bool.to_int closed))
          done)
  | None, true -> every 500 (fun () -> sample_mem c)
  | None, false -> ());
  c

let retired c = Array.length c.st = 0

(* Surge flows exist from tick 0 — creation order fixes determinism —
   but only offer traffic from their start tick. *)
let start c =
  if retired c then invalid_arg "Cell.start: cell used after retire";
  Array.iteri
    (fun i s ->
      let pump () =
        match c.group.(i) with
        | Group { p = (module P); senders; _ } -> P.sender_pump senders.(c.gslot.(i))
      in
      if s.start_at = 0 then pump () else Engine.schedule_at c.engine ~at:s.start_at pump)
    c.specs

(* ---- retirement ----

   A retired cell's int columns, its engine's and its links' go back to
   the column pool, for the next cell of the same shape. Every one is
   replaced by an empty array, so a later use fails on an empty column
   instead of writing into one another cell now owns. [ring_base] may
   be [msg_base] itself, which must go back once. *)

let retire c =
  if not (retired c) then begin
    Engine.retire c.engine;
    Link.retire c.data_link;
    Link.retire c.ack_link;
    if c.ring_base != c.msg_base then Columns.give c.ring_base;
    List.iter Columns.give [ c.msg_base; c.st; c.pull_tick; c.gslot ];
    c.msg_base <- [||];
    c.ring_base <- [||];
    c.st <- [||];
    c.pull_tick <- [||];
    c.gslot <- [||]
  end

(* ---- verdicts ---- *)

let retransmissions c i =
  match c.group.(i) with
  | Group { p = (module P); senders; _ } -> P.sender_retransmissions senders.(c.gslot.(i))

let pressure_drops c i =
  match c.group.(i) with
  | Group { p = (module P); receivers; _ } -> (
      match P.overload with
      | None -> 0
      | Some o -> o.receiver_pressure_dropped receivers.(c.gslot.(i)))

let counters c =
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
  let b = Counters.create () in
  Counters.add b Messages c.msg_base.(flows c);
  Counters.add b Delivered (field k_delivered);
  Counters.add b Duplicates (field k_duplicates);
  Counters.add b Misordered (field k_misordered);
  Counters.add b Corrupted (field k_corrupted);
  Counters.add b Completed_flows (marked k_completed_at);
  Counters.add b Departed (marked k_departed_at);
  Counters.add b Refused c.refused;
  Counters.add b Clamped_cells (Bool.to_int (c.clamp <> None));
  Counters.add b Data_sent (field k_data_sent);
  Counters.add b Acks_sent (field k_acks_sent);
  Counters.add b Retransmissions (sum (retransmissions c));
  Counters.add b Pressure_drops (sum (pressure_drops c));
  Counters.add b Quarantine_events (dogs Watchdog.quarantine_events);
  Counters.add b Watchdog_resyncs (dogs Watchdog.resync_events);
  Counters.add b Quarantined
    (dogs (fun d -> Bool.to_int (Watchdog.state d = Watchdog.Quarantined)));
  b

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
  let latency =
    match if Array.length c.latency = 0 then None else c.latency.(i) with
    | Some s -> s
    | None -> Stats.create 0
  in
  (* A restart no delivery ever resolved (a stuck run, or a crash with
     nothing left to deliver) is charged up to the flow's end — honest,
     if pessimistic. *)
  resolve_restarts c i ~now:upto;
  let delivered = get c i k_delivered in
  let data_sent = get c i k_data_sent and acks_sent = get c i k_acks_sent in
  let payload_bytes = delivered * sp.payload_size in
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
    data_outage_drops = 0;
    acks_sent;
    acks_dropped = 0;
    retransmissions = retransmissions c i;
    goodput = float_of_int delivered *. 1000. /. float_of_int ticks;
    latency = summary latency;
    latencies = Stats.to_array latency;
    ack_overhead =
      (if payload_bytes = 0 then 0.
       else float_of_int (acks_sent * P.ack_wire_bytes) /. float_of_int payload_bytes);
    efficiency = (if data_sent = 0 then 0. else float_of_int delivered /. float_of_int data_sent);
    crashes = get c i k_crashes;
    restarts = get c i k_restarts;
    resync_rounds = get c i k_resync_rounds;
    resync_ticks = Option.bind (Hashtbl.find_opt c.resync i) summary;
    retx_bytes = get c i k_retx_bytes;
    pressure_drops = pressure_drops c i;
  }
