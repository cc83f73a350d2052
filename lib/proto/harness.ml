include Flow

(* One flow in one cell, plus what only a private pair of links can
   attribute to a single flow: the links' drop, reorder and fault
   counters. *)
let run (module P : Protocol.S) ?(seed = 42) ?(messages = 1000) ?(payload_size = 32)
    ?(config = Proto_config.default) ?(data_loss = 0.) ?(ack_loss = 0.)
    ?(data_delay = Ba_channel.Dist.Uniform (40, 60)) ?(ack_delay = Ba_channel.Dist.Uniform (40, 60))
    ?data_bottleneck ?data_plan ?ack_plan ?(crash_plan = Crash_plan.none) ?deadline ?on_setup () =
  let spec = Cell.spec ~config ~messages ~payload_size (module P) in
  Cell.validate ~who:"Harness.run" [ spec ];
  Crash_plan.validate crash_plan;
  if crash_plan <> Crash_plan.none && Option.is_none P.lifecycle then
    invalid_arg (P.name ^ ": crash-restart lifecycle not supported");
  let cell =
    Cell.create ~engine_seed:seed
      ~wseed:(fun _ -> seed)
      ~data_loss ~ack_loss ~data_delay ~ack_delay ?data_bottleneck ?data_plan ?ack_plan
      (Cell.admission [ spec ])
  in
  Cell.schedule_crashes cell 0 crash_plan;
  Option.iter (fun g -> g cell) on_setup;
  Cell.start cell;
  Ba_sim.Engine.run ~until:(Option.value deadline ~default:(Cell.deadline cell)) (Cell.engine cell);
  let d = Ba_channel.Link.counters (Cell.data_link cell)
  and a = Ba_channel.Link.counters (Cell.ack_link cell) in
  let r =
    {
      (Cell.flow_result cell 0) with
      data_dropped = Ba_util.Counters.get d Lost;
      data_queue_dropped = Ba_util.Counters.get d Queue_dropped;
      data_reordered = Ba_util.Counters.get d Reordered;
      data_outage_drops = Ba_util.Counters.get d Outage_drops;
      acks_dropped = Ba_util.Counters.get a Lost;
    }
  in
  Cell.retire cell;
  r

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
  if r.pressure_drops > 0 then Format.fprintf ppf ", pressure-drops=%d" r.pressure_drops;
  (* And bottleneck-free runs: [dropped=] above is random channel loss
     only, so tail drops at the data bottleneck print on their own. *)
  if r.data_queue_dropped > 0 then Format.fprintf ppf ", queue-drops=%d" r.data_queue_dropped
