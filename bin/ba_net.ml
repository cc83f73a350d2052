(* ba_net: N connections multiplexed over a shared bottleneck link.

   The single-connection counterpart is ba_sim; ba_net instantiates the
   Ba_proto.Fabric with --connections copies of one protocol, or a
   heterogeneous --mix, all contending for one capacity-limited data
   link and one ack link. Prints a per-flow table plus aggregate
   goodput, shared-link counters and Jain's fairness index.

   Examples:
     ba_net --connections 8 --messages 50
     ba_net --mix blockack-multi:4,go-back-n:4 --capacity 2:64 --loss 0.01
     ba_net --connections 256 --messages 20 --capacity 1:256 --adaptive
     ba_net --sweep 1,4,16,64 --messages 20 --jobs 4   # S1-style scaling sweep
     ba_net --soak 5 --messages 30 --jobs 4            # S2-style overload soak *)

open Cmdliner
module Registry = Ba_registry.Registry
module Fabric = Ba_proto.Fabric

(* "proto:count,proto:count" with count defaulting to 1. *)
let mix_conv =
  let parse s =
    let part p =
      let name, count =
        match String.index_opt p ':' with
        | None -> (p, Ok 1)
        | Some i -> (
            let n = String.sub p 0 i in
            let c = String.sub p (i + 1) (String.length p - i - 1) in
            match int_of_string_opt c with
            | Some c when c > 0 -> (n, Ok c)
            | Some _ | None -> (n, Error (Printf.sprintf "bad count %S in mix" c)))
      in
      match (Registry.parse name, count) with
      | Ok e, Ok c -> Ok (e, c)
      | Error msg, _ | _, Error msg -> Error msg
    in
    let rec collect acc = function
      | [] -> Ok (List.rev acc)
      | p :: rest -> ( match part p with Ok x -> collect (x :: acc) rest | Error e -> Error e)
    in
    match collect [] (String.split_on_char ',' s) with
    | Ok specs -> Ok specs
    | Error msg -> Error (`Msg msg)
  in
  let print ppf mix =
    Format.pp_print_string ppf
      (String.concat ","
         (List.map (fun (e, c) -> Printf.sprintf "%s:%d" e.Registry.name c) mix))
  in
  Arg.conv ~docv:"MIX" (parse, print)

let capacity_conv =
  let parse s =
    match String.split_on_char ':' s with
    | [ svc; cap ] -> (
        match (int_of_string_opt svc, int_of_string_opt cap) with
        | Some svc, Some cap when svc > 0 && cap > 0 -> Ok (svc, cap)
        | _ -> Error (`Msg "capacity must be SERVICE_TICKS:QUEUE_SLOTS, both positive"))
    | _ -> Error (`Msg "capacity must be SERVICE_TICKS:QUEUE_SLOTS")
  in
  let print ppf (svc, cap) = Format.fprintf ppf "%d:%d" svc cap in
  Arg.conv ~docv:"CAPACITY" (parse, print)

let fmt = Ba_util.Table.fmt_float

(* S1-style scaling sweep: one cell per (connection count, protocol in
   the mix), every cell an independent Fabric.run farmed to the pool.
   Cells are listed row-major and collected in order, so the table is
   byte-identical at any --jobs. *)
let run_sweep ~counts ~mix ~messages ~payload_size ~loss ~ack_loss ~delay ~capacity ~window
    ~rto ~modulus ~adaptive ~seed ~jobs =
  let protos = List.map fst mix in
  let cells = List.concat_map (fun n -> List.map (fun e -> (n, e)) protos) counts in
  let outcomes =
    Ba_parallel.Pool.map_chunks ~jobs
      (fun (n, e) ->
        let config = Registry.config ~window ~rto ?modulus ~adaptive_rto:adaptive e () in
        let specs =
          List.init n (fun _ ->
              Fabric.spec ~config ~messages ~payload_size e.Registry.protocol)
        in
        Fabric.run ~seed ~data_loss:loss ~ack_loss ~data_delay:delay ~ack_delay:delay
          ?data_bottleneck:capacity specs)
      cells
  in
  let rows =
    List.map2
      (fun (n, e) (r : Fabric.result) ->
        [
          string_of_int n;
          e.Registry.name;
          (if r.Fabric.completed then "yes" else "NO");
          fmt r.Fabric.aggregate_goodput;
          fmt r.Fabric.fairness;
          string_of_int r.Fabric.data_stats.Ba_channel.Link.queue_dropped;
          string_of_int r.Fabric.ticks;
        ])
      cells outcomes
  in
  Ba_util.Table.print
    ~headers:[ "conns"; "protocol"; "completed"; "goodput"; "jain"; "qdrops"; "ticks" ]
    rows;
  if
    List.for_all
      (fun (r : Fabric.result) -> List.for_all Ba_proto.Harness.correct r.Fabric.flows)
      outcomes
  then 0
  else 1

(* Sharded scale run: --scale N flows partitioned into fixed-size cells
   (Ba_proto.Shard), the shared bottleneck realised as per-cell capacity
   leases reconciled at epoch barriers. Everything deterministic goes to
   stdout — the summary is byte-identical at any --jobs and any --shards
   (cram-proven) — while wall-clock figures (flows/sec, heap bytes per
   flow), which vary by machine, go to stderr. *)
let run_scale ~flows ~mix ~messages ~payload_size ~loss ~ack_loss ~delay ~capacity ~window
    ~rto ~modulus ~adaptive ~seed ~jobs ~shards ~cell ~barrier =
  let protos =
    Array.of_list (List.concat_map (fun (e, count) -> List.init count (fun _ -> e)) mix)
  in
  let specs =
    List.init flows (fun i ->
        let e = protos.(i mod Array.length protos) in
        let config = Registry.config ~window ~rto ?modulus ~adaptive_rto:adaptive e () in
        Fabric.spec ~config ~messages ~payload_size e.Registry.protocol)
  in
  let t0 = Unix.gettimeofday () in
  let r =
    Ba_proto.Shard.run ~seed ~jobs ?shards ~cell ~barrier ~data_loss:loss ~ack_loss
      ~data_delay:delay ~ack_delay:delay ?capacity ~measure_mem:true specs
  in
  let wall = Unix.gettimeofday () -. t0 in
  print_string (Ba_proto.Shard.summary r);
  let safe =
    r.Ba_proto.Shard.duplicates = 0 && r.Ba_proto.Shard.corrupted = 0
    && r.Ba_proto.Shard.misordered = 0
  in
  let pass = safe && r.Ba_proto.Shard.completed in
  Printf.printf "scale-verdict: flows=%d safety=%s completion=%s result=%s\n"
    r.Ba_proto.Shard.flows
    (if safe then "pass" else "FAIL")
    (if r.Ba_proto.Shard.completed then "pass" else "FAIL")
    (if pass then "PASS" else "FAIL");
  Printf.eprintf "scale-perf: wall=%.2fs flows/sec=%.0f state=%dB (%dB/flow)\n%!" wall
    (if wall > 0. then float_of_int r.Ba_proto.Shard.flows /. wall else 0.)
    r.Ba_proto.Shard.state_bytes
    (r.Ba_proto.Shard.state_bytes / max 1 r.Ba_proto.Shard.flows);
  if pass then 0 else 1

(* Long-horizon overload soak: each round doubles the offered load with
   a surge of late-starting flows under a fabric memory budget and an
   armed watchdog, and (when the protocol supports the crash lifecycle)
   stalls one victim flow's receiver through the surge so the watchdog
   machinery — resync, quarantine, probation release — actually runs.
   --churn adds seed-derived departing/returning flows per round and
   --fault lands a chaos fault class (up to the full storm composition)
   on every round.

   The harness memory is O(1) in the round count: rounds stream through
   the pool in bounded chunks, each result is folded into scalar
   aggregates and a fixed-size latency sketch and then dropped, and the
   table prints through Table.stream. Each round is a pure function of
   (seed + round), and chunks are folded in round order, so the report
   is byte-identical at any --jobs. *)
let soak_surge_at_default = 2000
let soak_stall_for_default = 5000

(* Post-churn goodput must recover to at least (1 - eps) of the
   pre-churn baseline; the floor printed in the verdict line. *)
let churn_goodput_eps = 0.5

let run_soak ~rounds ~mix ~messages ~payload_size ~loss ~ack_loss ~delay ~capacity ~window
    ~rto ~modulus ~adaptive ~seed ~budget ~surge_at ~stall_for ~churners ~fault ~jobs =
  let module Chaos = Ba_verify.Chaos in
  let module Qsketch = Ba_util.Qsketch in
  let specs_of_mix ~start_at =
    List.concat_map
      (fun (e, count) ->
        let config = Registry.config ~window ~rto ?modulus ~adaptive_rto:adaptive e () in
        List.init count (fun _ ->
            Fabric.spec ~config ~messages ~payload_size ~start_at e.Registry.protocol))
      mix
  in
  let base_specs = specs_of_mix ~start_at:0 in
  let surge_specs = specs_of_mix ~start_at:surge_at in
  let n_base = List.length base_specs in
  let n_fixed = n_base + List.length surge_specs in
  (* The stall victim is the first *surge* flow: it is guaranteed to
     still be mid-transfer when its receiver goes dark, so the watchdog
     escalation (resync, quarantine, probation release) actually runs. *)
  let victim_index = n_base in
  (* The churn tail reuses the first mix entry's protocol and config;
     its arrival/departure schedule is re-derived from each round's
     seed, so every round churns differently. *)
  let churn_entry = fst (List.hd mix) in
  let churn_config =
    Registry.config ~window ~rto ?modulus ~adaptive_rto:adaptive churn_entry ()
  in
  let specs_for rseed =
    if churners = 0 then base_specs @ surge_specs
    else
      base_specs @ surge_specs
      @ Fabric.churn ~base:0 ~churners ~messages ~payload_size ~config:churn_config ~seed:rseed
          churn_entry.Registry.protocol
  in
  (* Three quarters of the unclamped need: tight enough that admission
     must clamp, loose enough that every flow is still admitted. The
     need only depends on flow counts and window/payload shape, so it is
     the same for every round's churn schedule. *)
  let unclamped_need =
    List.fold_left
      (fun a (s : Fabric.spec) ->
        a + (2 * s.Fabric.config.Ba_proto.Proto_config.window * s.Fabric.payload_size))
      0
      (specs_for seed)
  in
  let budget = match budget with Some b -> b | None -> unclamped_need * 3 / 4 in
  let watchdog = { Ba_proto.Watchdog.default_config with Ba_proto.Watchdog.check_interval = 500 } in
  (* The victim's receiver goes dark through the surge, as a crash plan
     (replay key crash(R@<surge+100>+<stall>)). *)
  let stall_plan =
    Ba_proto.Crash_plan.make
      [ { at = surge_at + 100; endpoint = Ba_proto.Crash_plan.Receiver_end; down_for = stall_for } ]
  in
  let run_round round =
    let rseed = seed + round in
    let specs = specs_for rseed in
    (* The fault class's ingredients are the same pure functions of the
       round seed as in ba_chaos, so a soak round composes with the
       campaign's replay story: channel plans land on the shared links,
       the squeeze rewrites every flow's receiver budget and the shared
       bottleneck, and the crash plan hits the first base flow. *)
    let data_plan, ack_plan, crash_plan, squeeze =
      match fault with
      | None -> (None, None, None, None)
      | Some c ->
          let dp, ap = Chaos.plans_for c ~seed:rseed in
          let crash =
            match c with
            | Chaos.Crash | Chaos.Storm -> Some (Chaos.crash_plan_for ~seed:rseed)
            | _ -> None
          in
          let sq =
            match c with
            | Chaos.Overload | Chaos.Storm -> Some (Chaos.squeeze_for ~seed:rseed)
            | _ -> None
          in
          (Some dp, Some ap, crash, sq)
    in
    let specs, bottleneck =
      match squeeze with
      | None -> (specs, capacity)
      | Some sq ->
          ( List.map
              (fun (s : Fabric.spec) ->
                let config, _ = Chaos.apply_squeeze sq s.Fabric.config in
                { s with Fabric.config })
              specs,
            Some (sq.Chaos.service_time, sq.Chaos.queue_capacity) )
    in
    let on_flows _ cell =
      if Ba_proto.Cell.flows cell > victim_index then
        Ba_proto.Cell.schedule_crashes cell victim_index stall_plan;
      Option.iter (Ba_proto.Cell.schedule_crashes cell 0) crash_plan
    in
    Fabric.run ~seed:rseed ~data_loss:loss ~ack_loss ~data_delay:delay ~ack_delay:delay
      ?data_bottleneck:bottleneck ?data_plan ?ack_plan ~memory_budget:budget ~watchdog ~on_flows
      specs
  in
  (* Lazy so that a round failing outright (impossible budget) errors
     before anything is printed, as the buffered table used to. *)
  let sink =
    lazy
      (Ba_util.Table.stream
         ~aligns:
           Ba_util.Table.
             [ Right; Right; Left; Left; Right; Right; Right; Right; Right; Right; Left ]
         ~headers:
           [
             "round"; "seed"; "completed"; "admitted"; "departed"; "clamp"; "mem-peak";
             "quarantines"; "resyncs"; "recovery"; "verdict";
           ]
         ())
  in
  (* Constant-space aggregates; every round's full result dies with its
     chunk. The latency sketch replaces the old keep-every-sample
     accounting: bounded centroids, exact count/min/max. *)
  let sketch = Qsketch.create () in
  let peak = ref 0
  and over_budget = ref 0
  and quarantines = ref 0
  and resyncs = ref 0
  and worst_recovery = ref 0
  and unsafe_rounds = ref 0
  and stuck_rounds = ref 0
  and pre_goodput = ref 0.
  and pre_n = ref 0
  and post_goodput = ref 0.
  and post_n = ref 0
  and nodes_at_check = ref None in
  let fold round (r : Fabric.result) =
    let safe_round = List.for_all Ba_verify.Chaos.safe r.Fabric.flows in
    if not safe_round then incr unsafe_rounds;
    if not r.Fabric.completed then incr stuck_rounds;
    if r.Fabric.mem_peak_bytes > !peak then peak := r.Fabric.mem_peak_bytes;
    if r.Fabric.mem_peak_bytes > budget then incr over_budget;
    quarantines := !quarantines + r.Fabric.quarantine_events;
    resyncs := !resyncs + r.Fabric.watchdog_resyncs;
    if r.Fabric.completed && r.Fabric.ticks - surge_at > !worst_recovery then
      worst_recovery := r.Fabric.ticks - surge_at;
    (* Churn cohorts: the long-lived base flows are the pre-churn
       baseline; the returning flows (odd positions in each churner's
       leaver/returner pair) measure goodput after arrivals into
       reclaimed capacity. *)
    List.iteri
      (fun i (fr : Ba_proto.Harness.result) ->
        if i < n_base then begin
          pre_goodput := !pre_goodput +. fr.Ba_proto.Harness.goodput;
          incr pre_n
        end
        else if i >= n_fixed && (i - n_fixed) mod 2 = 1 then begin
          post_goodput := !post_goodput +. fr.Ba_proto.Harness.goodput;
          incr post_n
        end;
        List.iter (Qsketch.add sketch) fr.Ba_proto.Harness.latencies)
      r.Fabric.flows;
    if round = min 9 (rounds - 1) then nodes_at_check := Some (Qsketch.nodes sketch);
    let recovery =
      if r.Fabric.completed && r.Fabric.ticks > surge_at then
        string_of_int (r.Fabric.ticks - surge_at)
      else "-"
    in
    Ba_util.Table.stream_row (Lazy.force sink)
      [
        string_of_int round;
        string_of_int (seed + round);
        (if r.Fabric.completed then "yes" else "NO");
        Printf.sprintf "%d/%d" r.Fabric.admitted (r.Fabric.admitted + r.Fabric.refused);
        string_of_int r.Fabric.departed;
        (match r.Fabric.clamped_window with Some c -> string_of_int c | None -> "-");
        string_of_int r.Fabric.mem_peak_bytes;
        string_of_int r.Fabric.quarantine_events;
        string_of_int r.Fabric.watchdog_resyncs;
        recovery;
        (if r.Fabric.completed && safe_round then "ok"
         else if safe_round then "STUCK"
         else "UNSAFE");
      ]
  in
  Ba_parallel.Pool.with_pool ~jobs (fun pool ->
      let chunk = jobs * 4 in
      let rec go next =
        if next < rounds then begin
          let n = min chunk (rounds - next) in
          let results =
            Ba_parallel.Pool.map ~pool run_round (List.init n (fun i -> next + i))
          in
          List.iteri (fun i r -> fold (next + i) r) results;
          go (next + n)
        end
      in
      go 0);
  Printf.printf
    "\nsoak: %d rounds, budget=%dB, peak=%dB (%s), quarantines=%d, resyncs=%d, \
     worst post-surge recovery=%d ticks\n"
    rounds budget !peak
    (if !over_budget = 0 then "under budget" else "OVER BUDGET")
    !quarantines !resyncs !worst_recovery;
  if Qsketch.count sketch > 0 then
    Printf.printf "telemetry: latency n=%d p50=%.0f p90=%.0f p99=%.0f sketch=%dB\n"
      (Qsketch.count sketch) (Qsketch.quantile sketch 0.5) (Qsketch.quantile sketch 0.9)
      (Qsketch.quantile sketch 0.99) (Qsketch.mem_bytes sketch);
  (* The machine-checkable verdict: one line of key=value tokens. *)
  let safety_ok = !unsafe_rounds = 0 in
  let recovery_ok = !stuck_rounds = 0 in
  let mem_ok = !over_budget = 0 in
  let ratio =
    if !pre_n = 0 || !post_n = 0 then None
    else begin
      let pre = !pre_goodput /. float_of_int !pre_n in
      let post = !post_goodput /. float_of_int !post_n in
      if pre <= 0. then None else Some (post /. pre)
    end
  in
  let goodput_ok = match ratio with None -> true | Some r -> r >= 1. -. churn_goodput_eps in
  let check = match !nodes_at_check with Some n -> n | None -> Qsketch.nodes sketch in
  let nodes_ok = abs (Qsketch.nodes sketch - check) <= 1 in
  let pass = safety_ok && recovery_ok && mem_ok && goodput_ok && nodes_ok in
  Printf.printf
    "soak-verdict: rounds=%d safety=%s recovery=%s goodput-ratio=%s goodput-floor=%s \
     mem-peak=%dB budget=%dB sketch-nodes=%d->%d result=%s\n"
    rounds
    (if safety_ok then "pass" else "FAIL")
    (if recovery_ok then "pass" else "FAIL")
    (match ratio with None -> "-" | Some r -> fmt ~decimals:2 r)
    (match ratio with None -> "-" | Some _ -> fmt ~decimals:2 (1. -. churn_goodput_eps))
    !peak budget check (Qsketch.nodes sketch)
    (if pass then "PASS" else "FAIL");
  if pass then 0 else 1

let run list_protocols connections mix messages payload_size loss ack_loss_opt base_delay
    jitter capacity window rto modulus adaptive seed sweep soak budget surge_at stall_for churn
    fault scale shards cell barrier jobs =
  if list_protocols then begin
    Format.printf "%a" Registry.pp_list ();
    exit 0
  end;
  (* The soak-only options are rejected outside --soak rather than
     silently ignored. *)
  if soak = None then begin
    let reject name = function
      | Some _ ->
          Format.eprintf "ba_net: %s requires --soak@." name;
          exit 2
      | None -> ()
    in
    reject "--budget" budget;
    reject "--surge-at" surge_at;
    reject "--stall-for" stall_for;
    reject "--churn" churn;
    reject "--fault" fault
  end;
  (* Likewise the sharding knobs belong to --scale. *)
  if scale = None then begin
    let reject name = function
      | Some _ ->
          Format.eprintf "ba_net: %s requires --scale@." name;
          exit 2
      | None -> ()
    in
    reject "--shards" shards;
    reject "--cell" cell;
    reject "--barrier" barrier
  end;
  let ack_loss = Option.value ~default:loss ack_loss_opt in
  let delay =
    if jitter = 0 then Ba_channel.Dist.Constant base_delay
    else Ba_channel.Dist.Uniform (base_delay, base_delay + jitter)
  in
  let mix =
    match mix with
    | Some m -> m
    | None -> (
        match Registry.find "blockack-multi" with
        | Some e -> [ (e, connections) ]
        | None -> assert false)
  in
  let rto =
    match rto with
    | Some r -> r
    | None ->
        (* Cover propagation both ways plus a full queue drain, so a
           fixed timeout doesn't melt down the moment the queue fills. *)
        let svc, cap = Option.value ~default:(0, 0) capacity in
        (2 * (base_delay + jitter)) + (svc * cap) + 100
  in
  match soak with
  | Some rounds ->
      let jobs = Ba_cli.resolve_jobs jobs in
      if rounds < 1 then begin
        Format.eprintf "ba_net: --soak rounds must be positive (got %d)@." rounds;
        exit 2
      end;
      let positive name v default =
        match v with
        | None -> default
        | Some v when v > 0 -> v
        | Some v ->
            Format.eprintf "ba_net: %s must be positive (got %d)@." name v;
            exit 2
      in
      let surge_at = positive "--surge-at" surge_at soak_surge_at_default in
      let stall_for = positive "--stall-for" stall_for soak_stall_for_default in
      let churners =
        match churn with
        | None -> 0
        | Some c when c >= 0 -> c
        | Some c ->
            Format.eprintf "ba_net: --churn must be >= 0 (got %d)@." c;
            exit 2
      in
      let fault =
        match fault with
        | None -> None
        | Some name -> (
            match Ba_verify.Chaos.class_of_name name with
            | Some c -> Some c
            | None ->
                Format.eprintf "ba_net: unknown fault class %S@." name;
                exit 2)
      in
      run_soak ~rounds ~mix ~messages ~payload_size ~loss ~ack_loss ~delay ~capacity ~window
        ~rto ~modulus ~adaptive ~seed ~budget ~surge_at ~stall_for ~churners ~fault ~jobs
  | None ->
  match scale with
  | Some flows ->
      let jobs = Ba_cli.resolve_jobs jobs in
      if flows < 1 then begin
        Format.eprintf "ba_net: --scale flows must be positive (got %d)@." flows;
        exit 2
      end;
      let positive name v default =
        match v with
        | None -> default
        | Some v when v > 0 -> v
        | Some v ->
            Format.eprintf "ba_net: %s must be positive (got %d)@." name v;
            exit 2
      in
      let shards =
        match shards with
        | None | Some 0 -> None (* 0 = auto: one shard per job *)
        | Some s when s > 0 -> Some s
        | Some s ->
            Format.eprintf "ba_net: --shards must be >= 0 (got %d)@." s;
            exit 2
      in
      let cell = positive "--cell" cell 1024 in
      let barrier = positive "--barrier" barrier 1000 in
      run_scale ~flows ~mix ~messages ~payload_size ~loss ~ack_loss ~delay ~capacity ~window
        ~rto ~modulus ~adaptive ~seed ~jobs ~shards ~cell ~barrier
  | None ->
  match sweep with
  | Some counts ->
      let jobs = Ba_cli.resolve_jobs jobs in
      (match List.find_opt (fun n -> n < 1) counts with
      | Some n ->
          Format.eprintf "ba_net: --sweep counts must be positive (got %d)@." n;
          exit 2
      | None -> ());
      run_sweep ~counts ~mix ~messages ~payload_size ~loss ~ack_loss ~delay ~capacity
        ~window ~rto ~modulus ~adaptive ~seed ~jobs
  | None ->
  let specs =
    List.concat_map
      (fun (e, count) ->
        let config = Registry.config ~window ~rto ?modulus ~adaptive_rto:adaptive e () in
        List.init count (fun _ -> Fabric.spec ~config ~messages ~payload_size e.Registry.protocol))
      mix
  in
  let r =
    Fabric.run ~seed ~data_loss:loss ~ack_loss ~data_delay:delay ~ack_delay:delay
      ?data_bottleneck:capacity specs
  in
  let rows =
    List.map
      (fun (fr : Ba_proto.Harness.result) ->
        let p50, p99 =
          match fr.latency with
          | Some l -> (fmt ~decimals:0 l.Ba_util.Stats.p50, fmt ~decimals:0 l.Ba_util.Stats.p99)
          | None -> ("-", "-")
        in
        [
          fr.protocol;
          Printf.sprintf "%d/%d" fr.delivered fr.messages;
          string_of_int fr.retransmissions;
          string_of_int fr.ticks;
          fmt fr.goodput;
          p50;
          p99;
          (if Ba_proto.Harness.correct fr then "ok"
           else if fr.completed then "UNSAFE"
           else "STUCK");
        ])
      r.Fabric.flows
  in
  let numbered = List.mapi (fun i row -> string_of_int i :: row) rows in
  Ba_util.Table.print
    ~headers:[ "flow"; "protocol"; "delivered"; "retx"; "ticks"; "goodput"; "p50"; "p99"; "verdict" ]
    numbered;
  let d = r.Fabric.data_stats and a = r.Fabric.ack_stats in
  Printf.printf
    "\naggregate: %d flows, %s in %d ticks, goodput=%s/ktick, jain=%s\n\
     shared data link: sent=%d dropped=%d queue_dropped=%d reordered=%d\n\
     shared ack link:  sent=%d dropped=%d\n"
    (List.length r.Fabric.flows)
    (if r.Fabric.completed then "completed" else "INCOMPLETE")
    r.Fabric.ticks
    (fmt r.Fabric.aggregate_goodput)
    (fmt r.Fabric.fairness)
    d.Ba_channel.Link.sent d.Ba_channel.Link.dropped d.Ba_channel.Link.queue_dropped
    d.Ba_channel.Link.reordered a.Ba_channel.Link.sent a.Ba_channel.Link.dropped;
  if List.for_all Ba_proto.Harness.correct r.Fabric.flows then 0 else 1

let list_protocols =
  Arg.(value & flag
       & info [ "list-protocols" ]
           ~doc:"List every protocol in the shared registry (with aliases) and exit.")

let connections =
  Arg.(value & opt int 4
       & info [ "c"; "connections" ] ~doc:"Number of blockack-multi flows (ignored with --mix).")

let mix =
  Arg.(value & opt (some mix_conv) None
       & info [ "mix" ]
           ~doc:"Heterogeneous flow mix, e.g. blockack-multi:4,go-back-n:2,selective-repeat:2.")

let messages =
  Arg.(value & opt int 100 & info [ "m"; "messages" ] ~doc:"Messages per flow.")

let payload_size = Arg.(value & opt int 32 & info [ "payload-size" ] ~doc:"Payload bytes.")

let loss =
  Arg.(value & opt float 0.0 & info [ "l"; "loss" ] ~doc:"Loss probability on both shared links.")

let ack_loss =
  Arg.(value & opt (some float) None & info [ "ack-loss" ] ~doc:"Override ack-link loss.")

let base_delay =
  Arg.(value & opt int 50 & info [ "delay" ] ~doc:"Minimum one-way delay (ticks).")

let jitter =
  Arg.(value & opt int 0 & info [ "j"; "jitter" ] ~doc:"Extra uniform delay (0 = FIFO order).")

let capacity =
  Arg.(value & opt (some capacity_conv) (Some (2, 64))
       & info [ "capacity" ]
           ~doc:"Shared data-link bottleneck SERVICE_TICKS:QUEUE_SLOTS (one message serviced \
                 per SERVICE_TICKS from a FIFO of QUEUE_SLOTS, tail drop). Pass --no-capacity \
                 for an uncontended fabric.")

let no_capacity =
  Arg.(value & flag & info [ "no-capacity" ] ~doc:"Remove the shared bottleneck entirely.")

let window = Arg.(value & opt int 8 & info [ "w"; "window" ] ~doc:"Window size per flow.")

let rto =
  Arg.(value & opt (some int) None
       & info [ "rto" ]
           ~doc:"Retransmission timeout; default 2*(delay+jitter) + queue drain + 100.")

let modulus =
  Arg.(value & opt (some int) None
       & info [ "n"; "modulus" ]
           ~doc:"Wire sequence-number modulus (default: each protocol's registry recommendation, \
                 e.g. 2w for block acknowledgment).")

let adaptive =
  Arg.(value & flag
       & info [ "adaptive" ] ~doc:"Use the adaptive (Jacobson/Karels) retransmission timeout.")

let seed = Arg.(value & opt int 42 & info [ "s"; "seed" ] ~doc:"Random seed.")

let sweep =
  Arg.(
    value
    & opt (some (list int)) None
    & info [ "sweep" ] ~docv:"N1,N2,..."
        ~doc:
          "Scaling sweep: instead of one fabric, run one cell per (connection count, \
           protocol in the mix) and print a summary row each (aggregate goodput, Jain's \
           index, queue drops). Cells are independent simulations, so $(b,--jobs) runs \
           them in parallel with byte-identical output.")

let soak =
  Arg.(
    value
    & opt (some int) None
    & info [ "soak" ] ~docv:"ROUNDS"
        ~doc:
          "Long-horizon overload soak: run ROUNDS independent fabric rounds, each doubling \
           the offered load with a surge of late-starting flows under a memory budget \
           (default: 3/4 of the unclamped need, so admission must clamp) and an armed \
           per-flow watchdog; when the protocol supports the crash lifecycle one victim \
           flow's receiver is stalled through the surge so resync/quarantine machinery \
           runs. Reports peak buffered bytes, quarantine events and post-surge recovery \
           time per round. Rounds are independent simulations, so $(b,--jobs) runs them \
           in parallel with byte-identical output.")

let budget =
  Arg.(
    value
    & opt (some int) None
    & info [ "budget" ] ~docv:"BYTES"
        ~doc:"Override the soak's fabric memory budget in bytes (only with $(b,--soak)).")

let surge_at =
  Arg.(
    value
    & opt (some int) None
    & info [ "surge-at" ] ~docv:"TICK"
        ~doc:"Tick at which the soak's surge flows start offering traffic (default 2000; \
              only with $(b,--soak)).")

let stall_for =
  Arg.(
    value
    & opt (some int) None
    & info [ "stall-for" ] ~docv:"TICKS"
        ~doc:"How long the soak's stall victim's receiver stays dark (default 5000; only \
              with $(b,--soak)).")

let churn =
  Arg.(
    value
    & opt (some int) None
    & info [ "churn" ] ~docv:"CHURNERS"
        ~doc:"Add CHURNERS seed-derived departing/returning flow pairs to every soak round: \
              each churner arrives early, departs mid-round with work left (its budget \
              reservation is reclaimed), and a returning flow arrives into the reclaimed \
              capacity. The verdict line then checks post-churn goodput against the \
              pre-churn baseline (only with $(b,--soak)).")

let fault =
  Arg.(
    value
    & opt (some string) None
    & info [ "fault" ] ~docv:"CLASS"
        ~doc:"Land a ba_chaos fault class on every soak round, derived from the round seed: \
              channel plans hit the shared links, the overload squeeze rewrites receiver \
              budgets and the bottleneck, and the crash schedule hits the first base flow. \
              $(b,storm) composes all three (only with $(b,--soak)).")

let scale =
  Arg.(
    value
    & opt (some int) None
    & info [ "scale" ] ~docv:"FLOWS"
        ~doc:
          "Sharded scale run: simulate FLOWS flows (cycled over the $(b,--mix)) through the \
           cell-partitioned fabric (Ba_proto.Shard), where the shared bottleneck becomes \
           per-cell capacity leases reconciled at epoch barriers. The printed summary is a \
           pure function of the model parameters — byte-identical at any $(b,--jobs) and any \
           $(b,--shards) — while wall-clock figures go to stderr. Built for 100k-1M flows in \
           bounded memory.")

let shards_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "shards" ] ~docv:"N"
        ~doc:"Shard count for $(b,--scale): cells are dealt to N contiguous shard groups \
              each epoch (0 or default: one shard per job). Pure scheduling - never changes \
              output.")

let cell_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "cell" ] ~docv:"FLOWS"
        ~doc:"Flows per cell for $(b,--scale) (default 1024). A model parameter: changing \
              it changes the partition, and therefore the run.")

let barrier_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "barrier" ] ~docv:"TICKS"
        ~doc:"Epoch length in ticks for $(b,--scale) (default 1000): cells run independently \
              for one epoch, then the capacity leases are reconciled. A model parameter.")

let cmd =
  let doc = "simulate N window-protocol connections over a shared bottleneck" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Multiplexes $(b,--connections) flows (or a heterogeneous $(b,--mix)) over one \
         capacity-limited data link and one acknowledgment link, then reports per-flow \
         delivery, retransmissions, goodput and latency percentiles next to aggregate \
         goodput and Jain's fairness index. Runs are deterministic given $(b,--seed). \
         Exit status 1 if any flow delivered a duplicate, out-of-order or corrupted \
         payload, or failed to complete.";
    ]
  in
  let wrap list_protocols connections mix messages payload_size loss ack_loss base_delay
      jitter capacity no_capacity window rto modulus adaptive seed sweep soak budget surge_at
      stall_for churn fault scale shards cell barrier jobs =
    let capacity = if no_capacity then None else capacity in
    run list_protocols connections mix messages payload_size loss ack_loss base_delay jitter
      capacity window rto modulus adaptive seed sweep soak budget surge_at stall_for churn
      fault scale shards cell barrier jobs
  in
  Cmd.v
    (Cmd.info "ba_net" ~doc ~man ~version:Ba_cli.version)
    Term.(
      const wrap $ list_protocols $ connections $ mix $ messages $ payload_size $ loss
      $ ack_loss $ base_delay $ jitter $ capacity $ no_capacity $ window $ rto $ modulus
      $ adaptive $ seed $ sweep $ soak $ budget $ surge_at $ stall_for $ churn $ fault
      $ scale $ shards_arg $ cell_arg $ barrier_arg $ Ba_cli.jobs)

let () = exit (Cmd.eval' cmd)
