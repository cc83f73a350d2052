type result = Flow.result = {
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

type setup = {
  engine : Ba_sim.Engine.t;
  data_link : Wire.data Ba_channel.Link.t;
  ack_link : Wire.ack Ba_channel.Link.t;
}

let run (module P : Protocol.S) ?(seed = 42) ?(messages = 1000) ?(payload_size = 32)
    ?(config = Proto_config.default) ?(data_loss = 0.) ?(ack_loss = 0.)
    ?(data_delay = Ba_channel.Dist.Uniform (40, 60)) ?(ack_delay = Ba_channel.Dist.Uniform (40, 60))
    ?data_bottleneck ?data_plan ?ack_plan ?(crash_plan = Crash_plan.none) ?deadline ?on_setup () =
  Proto_config.validate config;
  Crash_plan.validate crash_plan;
  let engine = Ba_sim.Engine.create ~seed () in
  let deadline =
    match deadline with
    | Some d -> d
    | None ->
        (* Generous: every message could need several timeouts even at
           heavy loss before the run is declared stuck. *)
        (max 1 messages * config.Proto_config.rto * 20) + 1_000_000
  in
  let flow = ref None in
  let data_link =
    Ba_channel.Link.create engine ~loss:data_loss ~delay:data_delay ?bottleneck:data_bottleneck
      ~corrupt:Wire.corrupt_data ~release:Wire.release_data
      ~deliver:(fun d -> match !flow with Some f -> Flow.on_data f d | None -> ())
      ()
  in
  let ack_link =
    Ba_channel.Link.create engine ~loss:ack_loss ~delay:ack_delay
      ~corrupt:Wire.corrupt_ack ~release:Wire.release_ack
      ~deliver:(fun a -> match !flow with Some f -> Flow.on_ack f a | None -> ())
      ()
  in
  Option.iter (Ba_channel.Link.set_plan data_link) data_plan;
  Option.iter (Ba_channel.Link.set_plan ack_link) ack_plan;
  let f =
    Flow.create engine
      (module P)
      ~seed ~messages ~payload_size ~config
      ~data_tx:(Ba_channel.Link.send data_link)
      ~ack_tx:(Ba_channel.Link.send ack_link)
      ~on_complete:(fun () -> Ba_sim.Engine.stop engine)
      ()
  in
  flow := Some f;
  Flow.schedule_crashes engine f crash_plan;
  (match on_setup with
  | Some g -> g { engine; data_link; ack_link }
  | None -> ());
  Flow.pump f;
  Ba_sim.Engine.run ~until:deadline engine;
  Flow.result f
    ~data_stats:(Ba_channel.Link.stats data_link)
    ~ack_stats:(Ba_channel.Link.stats ack_link)
    ~ticks:(Ba_sim.Engine.now engine) ()

let correct r = r.completed && r.duplicates = 0 && r.misordered = 0 && r.corrupted = 0

let pp_result ppf r =
  Format.fprintf ppf
    "%s: %s in %d ticks — %d/%d delivered (dup=%d ooo=%d bad=%d), data sent=%d dropped=%d \
     reord=%d, acks=%d dropped=%d, retx=%d, goodput=%.3f/ktick, ack-ovh=%.4f, eff=%.3f"
    r.protocol
    (if r.completed then "completed" else "STUCK")
    r.ticks r.delivered r.messages r.duplicates r.misordered r.corrupted r.data_sent
    r.data_dropped r.data_reordered r.acks_sent r.acks_dropped r.retransmissions r.goodput
    r.ack_overhead r.efficiency;
  (* Crash-free runs keep the historical (cram-pinned) one-line format;
     recovery metrics appear only when the plan actually faulted a
     process. *)
  if r.crashes > 0 then
    Format.fprintf ppf ", crashes=%d restarts=%d resync-rounds=%d resync-ticks=%s retx-bytes=%d"
      r.crashes r.restarts r.resync_rounds
      (match r.resync_ticks with
      | None -> "-"
      | Some s -> Printf.sprintf "%.0f/%.0f" s.Ba_util.Stats.mean s.Ba_util.Stats.max)
      r.retx_bytes;
  (* Likewise budget-free runs: the counter only prints when a receiver
     budget actually refused frames. *)
  if r.pressure_drops > 0 then Format.fprintf ppf ", pressure-drops=%d" r.pressure_drops
