(* One connection's worth of wiring: a protocol's sender/receiver pair,
   its workload, and the bookkeeping that turns deliveries into a
   verdict. The harness runs exactly one flow over private links; the
   fabric multiplexes many flows over shared ones. *)

type result = {
  protocol : string;
  completed : bool;
  ticks : int;
  messages : int;
  delivered : int;
  duplicates : int;
  misordered : int;
  corrupted : int;
  data_sent : int;
  data_dropped : int;
  data_queue_dropped : int;
  data_reordered : int;
  data_duplicated : int;
  data_corrupted : int;
  data_outage_drops : int;
  acks_sent : int;
  acks_dropped : int;
  acks_corrupted : int;
  ack_outage_drops : int;
  retransmissions : int;
  goodput : float;
  latency : Ba_util.Stats.summary option;
  latencies : float list;
  ack_overhead : float;
  efficiency : float;
  crashes : int;
  restarts : int;
  resync_rounds : int;
  resync_ticks : Ba_util.Stats.summary option;
  retx_bytes : int;
  pressure_drops : int;
}

type t = {
  id : int;
  protocol : string;
  messages : int;
  payload_size : int;
  ack_wire_bytes : int;
  engine : Ba_sim.Engine.t;
  feed_data : Wire.data -> unit;
  feed_ack : Wire.ack -> unit;
  do_pump : unit -> unit;
  sender_done : unit -> bool;
  sender_retransmissions : unit -> int;
  sender_outstanding : unit -> int;
  sender_mem : unit -> int;
  receiver_mem : unit -> int;
  do_clamp : int -> unit;
  pressure : unit -> int;
  do_sender_crash : unit -> unit;
  do_sender_restart : unit -> unit;
  do_receiver_crash : unit -> unit;
  do_receiver_restart : unit -> unit;
  crash_supported : bool;
  resync_rounds : unit -> int;
  crashes : int ref;
  restarts : int ref;
  resync_ticks : Ba_util.Stats.t;
  pending_restarts : int list ref;
  retx_bytes : int ref;
  delivered : int ref;
  duplicates : int ref;
  misordered : int ref;
  corrupted : int ref;
  data_sent : int ref;
  acks_sent : int ref;
  latency_stats : Ba_util.Stats.t;
  completed_at : int option ref;
}

let create engine (module P : Protocol.S) ?(id = 0) ?workload_seed ~seed ~messages
    ~payload_size ~config ~data_tx ~ack_tx ?on_complete () =
  Proto_config.validate config;
  let workload_seed = Option.value ~default:seed workload_seed in
  let sender = ref None and receiver = ref None in
  let delivered = ref 0
  and duplicates = ref 0
  and misordered = ref 0
  and corrupted = ref 0
  and data_sent = ref 0
  and acks_sent = ref 0
  and next_expected = ref 0
  and completed_at = ref None
  and crashes = ref 0
  and restarts = ref 0
  and pending_restarts = ref []
  and retx_bytes = ref 0 in
  let resync_ticks = Ba_util.Stats.create () in
  (* Ticks-to-resync: every restart opens a recovery interval that the
     next successful in-order delivery (or completion) closes. *)
  let resolve_restarts () =
    let now = Ba_sim.Engine.now engine in
    List.iter
      (fun t0 -> Ba_util.Stats.add resync_ticks (float_of_int (now - t0)))
      !pending_restarts;
    pending_restarts := []
  in
  let seen = Ba_util.Bitset.create ~initial_capacity:messages () in
  (* Indexed by message number — the workload's index space is exactly
     [0, messages), so flat arrays replace the old Hashtbls and the
     per-delivery validation path stops allocating. *)
  let expected_payloads = Array.make (max 1 messages) "" in
  let pulled_at = Array.make (max 1 messages) (-1) in
  let latency_stats = Ba_util.Stats.create () in
  let check_done () =
    match !sender with
    | Some s when !delivered >= messages && P.sender_done s && !completed_at = None ->
        completed_at := Some (Ba_sim.Engine.now engine);
        resolve_restarts ();
        (match on_complete with Some f -> f () | None -> ())
    | Some _ | None -> ()
  in
  let deliver payload =
    (match Workload.index_of payload with
    | None -> incr corrupted
    | Some i when i < 0 || i >= messages -> incr corrupted
    | Some i ->
        let valid =
          let exp = expected_payloads.(i) in
          if String.length exp > 0 then String.equal exp payload
          else Workload.matches ~seed:workload_seed ~size:payload_size i payload
        in
        if not valid then incr corrupted
        else if Ba_util.Bitset.mem seen i then incr duplicates
        else begin
          Ba_util.Bitset.set seen i;
          incr delivered;
          resolve_restarts ();
          let t0 = pulled_at.(i) in
          if t0 >= 0 then
            Ba_util.Stats.add latency_stats (float_of_int (Ba_sim.Engine.now engine - t0));
          if i <> !next_expected then incr misordered;
          next_expected := i + 1
        end);
    check_done ()
  in
  let next_payload = Workload.supplier ~seed:workload_seed ~size:payload_size ~count:messages in
  let next_payload () =
    match next_payload () with
    | None -> None
    | Some p ->
        (match Workload.index_of p with
        | Some i when i >= 0 && i < messages ->
            expected_payloads.(i) <- p;
            pulled_at.(i) <- Ba_sim.Engine.now engine
        | Some _ | None -> ());
        Some p
  in
  (* Index-keyed retransmission bytes: workload payloads are unique per
     message, so a second transmission of the same index is a
     retransmitted copy. Handshake frames carry no payload and are
     excluded, as are payloads outside the workload's index space. *)
  let tx_seen = Array.make (max 1 messages) false in
  let s =
    P.create_sender engine config
      ~tx:(fun d ->
        incr data_sent;
        (match d.Wire.dkind with
        | Wire.Msg -> (
            match Workload.index_of d.Wire.payload with
            | Some i when i >= 0 && i < messages ->
                if tx_seen.(i) then retx_bytes := !retx_bytes + Wire.data_bytes d
                else tx_seen.(i) <- true
            | Some _ | None -> ())
        | Wire.Sync_req | Wire.Sync_fin -> ());
        data_tx d)
      ~next_payload
  in
  let r =
    P.create_receiver engine config
      ~tx:(fun a ->
        incr acks_sent;
        ack_tx a)
      ~deliver
  in
  sender := Some s;
  receiver := Some r;
  {
    id;
    protocol = P.name;
    messages;
    payload_size;
    ack_wire_bytes = P.ack_wire_bytes;
    engine;
    feed_data = (fun d -> P.receiver_on_data r d);
    feed_ack =
      (fun a ->
        P.sender_on_ack s a;
        check_done ());
    do_pump = (fun () -> P.sender_pump s);
    do_sender_crash = (fun () -> incr crashes; P.sender_crash s);
    do_sender_restart =
      (fun () ->
        incr restarts;
        pending_restarts := Ba_sim.Engine.now engine :: !pending_restarts;
        P.sender_restart s;
        check_done ());
    do_receiver_crash = (fun () -> incr crashes; P.receiver_crash r);
    do_receiver_restart =
      (fun () ->
        incr restarts;
        pending_restarts := Ba_sim.Engine.now engine :: !pending_restarts;
        P.receiver_restart r);
    crash_supported = P.crash_tolerant;
    resync_rounds = (fun () -> P.sender_resync_rounds s + P.receiver_resync_rounds r);
    crashes;
    restarts;
    resync_ticks;
    pending_restarts;
    retx_bytes;
    sender_done = (fun () -> P.sender_done s);
    sender_retransmissions = (fun () -> P.sender_retransmissions s);
    sender_outstanding = (fun () -> P.sender_outstanding s);
    sender_mem = (fun () -> P.sender_mem_bytes s);
    receiver_mem = (fun () -> P.receiver_mem_bytes r);
    do_clamp = (fun n -> P.sender_clamp_window s n);
    pressure = (fun () -> P.receiver_pressure_dropped r);
    delivered;
    duplicates;
    misordered;
    corrupted;
    data_sent;
    acks_sent;
    latency_stats;
    completed_at;
  }

let on_data t d = t.feed_data d
let on_ack t a = t.feed_ack a
let pump t = t.do_pump ()
let id t = t.id
let protocol_name t = t.protocol
let messages t = t.messages
let delivered t = !(t.delivered)
let retransmissions t = t.sender_retransmissions ()
let outstanding t = t.sender_outstanding ()
let is_complete t = !(t.delivered) >= t.messages && t.sender_done ()
let completed_at t = !(t.completed_at)
let crash_tolerant t = t.crash_supported
let mem_bytes t = t.sender_mem () + t.receiver_mem ()
let clamp_window t n = t.do_clamp n
let pressure_drops t = t.pressure ()
let crash_sender t = t.do_sender_crash ()
let restart_sender t = t.do_sender_restart ()
let crash_receiver t = t.do_receiver_crash ()
let restart_receiver t = t.do_receiver_restart ()

let schedule_crashes engine t plan =
  List.iter
    (fun (e : Crash_plan.event) ->
      let crash, restart =
        match e.Crash_plan.endpoint with
        | Crash_plan.Sender_end -> (crash_sender, restart_sender)
        | Crash_plan.Receiver_end -> (crash_receiver, restart_receiver)
      in
      ignore (Ba_sim.Engine.schedule_at engine ~at:e.Crash_plan.at (fun () -> crash t));
      ignore
        (Ba_sim.Engine.schedule_at engine ~at:(e.Crash_plan.at + e.Crash_plan.down_for)
           (fun () -> restart t)))
    plan

let zero_stats =
  {
    Ba_channel.Link.sent = 0;
    delivered = 0;
    dropped = 0;
    queue_dropped = 0;
    reordered = 0;
    duplicated = 0;
    corrupted = 0;
    outage_drops = 0;
  }

let result t ?data_stats ?ack_stats ~ticks () =
  (* Without injected link stats (shared links can't attribute drops to
     one flow) fall back to the flow's own send counters, which equal
     what a private link would have counted as [sent]. *)
  let dstats =
    match data_stats with
    | Some s -> s
    | None -> { zero_stats with Ba_channel.Link.sent = !(t.data_sent) }
  in
  let astats =
    match ack_stats with
    | Some s -> s
    | None -> { zero_stats with Ba_channel.Link.sent = !(t.acks_sent) }
  in
  let delivered = !(t.delivered) in
  let payload_bytes_delivered = delivered * t.payload_size in
  (* A restart no delivery ever resolved (a stuck run, or a crash with
     nothing left to deliver) is charged up to the horizon — honest, if
     pessimistic. *)
  List.iter
    (fun t0 -> Ba_util.Stats.add t.resync_ticks (float_of_int (ticks - t0)))
    !(t.pending_restarts);
  t.pending_restarts := [];
  {
    protocol = t.protocol;
    completed = is_complete t;
    ticks;
    messages = t.messages;
    delivered;
    duplicates = !(t.duplicates);
    misordered = !(t.misordered);
    corrupted = !(t.corrupted);
    data_sent = dstats.Ba_channel.Link.sent;
    data_dropped = dstats.Ba_channel.Link.dropped;
    data_queue_dropped = dstats.Ba_channel.Link.queue_dropped;
    data_reordered = dstats.Ba_channel.Link.reordered;
    data_duplicated = dstats.Ba_channel.Link.duplicated;
    data_corrupted = dstats.Ba_channel.Link.corrupted;
    data_outage_drops = dstats.Ba_channel.Link.outage_drops;
    acks_sent = astats.Ba_channel.Link.sent;
    acks_dropped = astats.Ba_channel.Link.dropped;
    acks_corrupted = astats.Ba_channel.Link.corrupted;
    ack_outage_drops = astats.Ba_channel.Link.outage_drops;
    retransmissions = t.sender_retransmissions ();
    goodput = (if ticks = 0 then 0. else float_of_int delivered *. 1000. /. float_of_int ticks);
    latency =
      (if Ba_util.Stats.count t.latency_stats = 0 then None
       else Some (Ba_util.Stats.summary t.latency_stats));
    latencies = Ba_util.Stats.samples t.latency_stats;
    ack_overhead =
      (if payload_bytes_delivered = 0 then 0.
       else
         float_of_int (astats.Ba_channel.Link.sent * t.ack_wire_bytes)
         /. float_of_int payload_bytes_delivered);
    efficiency =
      (if dstats.Ba_channel.Link.sent = 0 then 0.
       else float_of_int delivered /. float_of_int dstats.Ba_channel.Link.sent);
    crashes = !(t.crashes);
    restarts = !(t.restarts);
    resync_rounds = t.resync_rounds ();
    resync_ticks =
      (if Ba_util.Stats.count t.resync_ticks = 0 then None
       else Some (Ba_util.Stats.summary t.resync_ticks));
    retx_bytes = !(t.retx_bytes);
    pressure_drops = t.pressure ();
  }
