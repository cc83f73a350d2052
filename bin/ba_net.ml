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

(* One spec per connection of the mix, in mix order. *)
let mix_specs ~spec ?start_at mix =
  List.concat_map (fun (e, count) -> List.init count (fun _ -> spec ?start_at e)) mix

(* S1-style scaling sweep: one cell per (connection count, protocol in
   the mix), every cell an independent Fabric.run farmed to the pool.
   Cells are listed row-major and collected in order, so the table is
   byte-identical at any --jobs. *)
let run_sweep ~counts ~mix ~spec ~loss ~ack_loss ~delay ~capacity ~seed ~jobs =
  let protos = List.map fst mix in
  let cells = List.concat_map (fun n -> List.map (fun e -> (n, e)) protos) counts in
  let outcomes =
    Ba_parallel.Pool.map_chunks ~jobs
      (fun (n, e) ->
        Fabric.run ~seed ~data_loss:loss ~ack_loss ~data_delay:delay ~ack_delay:delay
          ?data_bottleneck:capacity
          (List.init n (fun _ -> spec e)))
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
          string_of_int (Ba_util.Counters.get r.Fabric.data_link Queue_dropped);
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
   stdout — the summary is byte-identical at any --jobs (cram-proven) —
   while wall-clock figures (flows/sec, heap bytes per flow), which vary
   by machine, go to stderr. An unsafe run also prints the seed and its
   first unsafe cell: the replay key of a cell, which is a deterministic
   sub-simulation. *)
let run_scale ~flows ~mix ~spec ~loss ~ack_loss ~delay ~capacity ~seed ~jobs ~cell ~barrier =
  let protos =
    Array.of_list (List.concat_map (fun (e, count) -> List.init count (fun _ -> e)) mix)
  in
  let specs = List.init flows (fun i -> spec protos.(i mod Array.length protos)) in
  let run ~measure_mem =
    Ba_proto.Shard.run ~seed ~jobs ~cell ~barrier ~data_loss:loss ~ack_loss ~data_delay:delay
      ~ack_delay:delay ?capacity ~measure_mem specs
  in
  (* Timed without [measure_mem]: its walk over each cell's reachable
     words is measurement, not simulation. The state figure comes from a
     second, untimed run of the same (deterministic) model. *)
  let t0 = Unix.gettimeofday () in
  let r = run ~measure_mem:false in
  let wall = Unix.gettimeofday () -. t0 in
  let state_bytes = (run ~measure_mem:true).Ba_proto.Shard.state_bytes in
  print_string (Ba_proto.Shard.summary r);
  let safe = Ba_proto.Shard.safe r in
  let pass = safe && r.Ba_proto.Shard.completed in
  Printf.printf "scale-verdict: flows=%d safety=%s completion=%s result=%s\n"
    r.Ba_proto.Shard.flows
    (if safe then "pass" else "FAIL")
    (if r.Ba_proto.Shard.completed then "pass" else "FAIL")
    (if pass then "PASS" else "FAIL");
  Option.iter (Printf.printf "scale-replay: seed=%d cell=%d\n" seed) r.Ba_proto.Shard.unsafe_cell;
  Printf.eprintf "scale-perf: wall=%.2fs flows/sec=%.0f state=%dB (%dB/flow)\n%!" wall
    (if wall > 0. then float_of_int r.Ba_proto.Shard.flows /. wall else 0.)
    state_bytes (state_bytes / max 1 r.Ba_proto.Shard.flows);
  if pass then 0 else 1

(* Long-horizon overload soak: each round doubles the offered load with
   a surge of late-starting flows under a fabric memory budget and an
   armed watchdog, and (when the protocol supports the crash lifecycle)
   stalls one victim flow's receiver through the surge so the watchdog
   machinery — resync, quarantine, probation release — actually runs.
   --churn adds seed-derived departing/returning flows per round and
   --fault lands a chaos fault class (up to the full storm composition)
   on every round.

   Each round is one Ba_verify.Soak.round at seed + round, and
   Soak.fold streams the rounds into O(1) aggregates in round order, so
   the report is byte-identical at any --jobs. This runner only builds
   the flow population and prints; the table goes through
   Table.stream. *)
let soak_surge_at_default = 2000
let soak_stall_for_default = 5000

let run_soak ~rounds ~mix ~(spec : ?start_at:int -> Registry.entry -> Fabric.spec) ~loss
    ~ack_loss ~delay ~capacity ~seed ~budget ~surge_at ~stall_for ~churners ~fault ~jobs =
  let module Soak = Ba_verify.Soak in
  let module Qsketch = Ba_util.Qsketch in
  let base_specs = mix_specs ~spec mix in
  let surge_specs = mix_specs ~spec ~start_at:surge_at mix in
  let n_base = List.length base_specs in
  let n_fixed = n_base + List.length surge_specs in
  (* The churn tail takes the first mix entry's spec; its
     arrival/departure schedule is re-derived from each round's seed, so
     every round churns differently. *)
  let c = spec (fst (List.hd mix)) in
  let specs_for rseed =
    base_specs @ surge_specs
    @ Fabric.churn ~base:0 ~churners ~messages:c.Fabric.messages
        ~payload_size:c.Fabric.payload_size ~config:c.Fabric.config ~seed:rseed c.Fabric.protocol
  in
  (* The stall victim is the first *surge* flow: it is guaranteed to
     still be mid-transfer when its receiver goes dark (replay key
     crash(R@<surge+100>+<stall>)), so the watchdog escalation (resync,
     quarantine, probation release) actually runs. *)
  let stall_plan =
    Ba_proto.Crash_plan.make
      [ { at = surge_at + 100; endpoint = Ba_proto.Crash_plan.Receiver_end; down_for = stall_for } ]
  in
  let run_round round =
    let rseed = seed + round in
    Soak.round ~data_loss:loss ~ack_loss ~delay ?capacity ?budget ~crashes:[ (n_base, stall_plan) ] ?fault
      ~base:n_base ~churn_from:n_fixed ~seed:rseed (specs_for rseed)
  in
  let sink =
    Ba_util.Table.stream
      ~aligns:
        Ba_util.Table.[ Right; Right; Left; Left; Right; Right; Right; Right; Right; Right; Left ]
      ~headers:
        [
          "round"; "seed"; "completed"; "admitted"; "departed"; "clamp"; "mem-peak";
          "quarantines"; "resyncs"; "recovery"; "verdict";
        ]
      ()
  in
  let on_round round (rd : Soak.round) =
    let r = rd.Soak.result in
    let n = Ba_util.Counters.get r.Fabric.counters in
    let admitted = List.length r.Fabric.flows in
    Ba_util.Table.stream_row sink
      [
        string_of_int round;
        string_of_int (seed + round);
        (if r.Fabric.completed then "yes" else "NO");
        Printf.sprintf "%d/%d" admitted (admitted + n Refused);
        string_of_int (n Departed);
        (match r.Fabric.clamped_window with Some c -> string_of_int c | None -> "-");
        string_of_int r.Fabric.mem_peak_bytes;
        string_of_int (n Quarantine_events);
        string_of_int (n Watchdog_resyncs);
        (if r.Fabric.completed && r.Fabric.ticks > surge_at then
           string_of_int (r.Fabric.ticks - surge_at)
         else "-");
        (if r.Fabric.completed && rd.Soak.safe then "ok"
         else if rd.Soak.safe then "STUCK"
         else "UNSAFE");
      ]
  in
  let s = Soak.fold ~on_round ~jobs ~rounds run_round in
  let sketch = s.Soak.sketch in
  Printf.printf
    "\nsoak: %d rounds, budget=%dB, peak=%dB (%s), quarantines=%d, resyncs=%d, \
     worst post-surge recovery=%d ticks\n"
    rounds s.Soak.budget s.Soak.peak
    (if s.Soak.over_budget = 0 then "under budget" else "OVER BUDGET")
    (Ba_util.Counters.get s.Soak.counters Quarantine_events)
    (Ba_util.Counters.get s.Soak.counters Watchdog_resyncs)
    (max 0 (s.Soak.worst_ticks - surge_at));
  if Qsketch.count sketch > 0 then
    Printf.printf "telemetry: latency n=%d p50=%.0f p90=%.0f p99=%.0f sketch=%dB\n"
      (Qsketch.count sketch) (Qsketch.quantile sketch 0.5) (Qsketch.quantile sketch 0.9)
      (Qsketch.quantile sketch 0.99) (Qsketch.mem_bytes sketch);
  (* The machine-checkable verdict: one line of key=value tokens. *)
  let ratio = s.Soak.ratio in
  Printf.printf
    "soak-verdict: rounds=%d safety=%s recovery=%s goodput-ratio=%s goodput-floor=%s \
     mem-peak=%dB budget=%dB sketch-nodes=%d->%d result=%s\n"
    rounds
    (if s.Soak.unsafe_rounds = 0 then "pass" else "FAIL")
    (if s.Soak.stuck_rounds = 0 then "pass" else "FAIL")
    (match ratio with None -> "-" | Some r -> fmt ~decimals:2 r)
    (match ratio with None -> "-" | Some _ -> fmt ~decimals:2 Soak.goodput_floor)
    s.Soak.peak s.Soak.budget s.Soak.nodes_at_check (Qsketch.nodes sketch)
    (if s.Soak.pass then "PASS" else "FAIL");
  if s.Soak.pass then 0 else 1

(* The default mode: one fabric run over the mix, a per-flow table and
   the shared links' counters. *)
let run_fabric ~mix ~spec ~loss ~ack_loss ~delay ~capacity ~seed =
  let r =
    Fabric.run ~seed ~data_loss:loss ~ack_loss ~data_delay:delay ~ack_delay:delay
      ?data_bottleneck:capacity (mix_specs ~spec mix)
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
  let d = Ba_util.Counters.get r.Fabric.data_link
  and a = Ba_util.Counters.get r.Fabric.ack_link in
  Printf.printf
    "\naggregate: %d flows, %s in %d ticks, goodput=%s/ktick, jain=%s\n\
     shared data link: sent=%d dropped=%d queue_dropped=%d reordered=%d\n\
     shared ack link:  sent=%d dropped=%d\n"
    (List.length r.Fabric.flows)
    (if r.Fabric.completed then "completed" else "INCOMPLETE")
    r.Fabric.ticks
    (fmt r.Fabric.aggregate_goodput)
    (fmt r.Fabric.fairness)
    (d Offered) (d Lost) (d Queue_dropped) (d Reordered) (a Offered) (a Lost);
  if List.for_all Ba_proto.Harness.correct r.Fabric.flows then 0 else 1

let run list_protocols connections mix messages payload_size loss ack_loss_opt base_delay
    jitter capacity window rto modulus adaptive seed sweep soak budget surge_at stall_for churn
    fault scale cell barrier jobs =
  if list_protocols then begin
    Format.printf "%a" Registry.pp_list ();
    exit 0
  end;
  let reject = Ba_cli.reject in
  let run =
    Ba_cli.validate ~tool:"ba_net" @@ fun () ->
    (* One run mode at a time, and each mode's options only with it: a
       second mode or a stray option would be silently dropped. *)
    (match
       List.filter_map Fun.id
         [
           Option.map (fun _ -> "--soak") soak;
           Option.map (fun _ -> "--scale") scale;
           Option.map (fun _ -> "--sweep") sweep;
         ]
     with
    | _ :: _ :: _ as modes -> reject "%s are mutually exclusive" (String.concat ", " modes)
    | _ -> ());
    let only mode given name = function
      | Some _ when not given -> reject "%s requires %s" name mode
      | _ -> ()
    in
    only "--soak" (soak <> None) "--budget" budget;
    only "--soak" (soak <> None) "--surge-at" surge_at;
    only "--soak" (soak <> None) "--stall-for" stall_for;
    only "--soak" (soak <> None) "--churn" churn;
    only "--soak" (soak <> None) "--fault" fault;
    only "--scale" (scale <> None) "--cell" cell;
    only "--scale" (scale <> None) "--barrier" barrier;
    let ack_loss = Option.value ~default:loss ack_loss_opt in
    Ba_cli.probability "--loss" loss;
    Ba_cli.probability "--ack-loss" ack_loss;
    Ba_cli.non_negative "--delay" base_delay;
    Ba_cli.non_negative "--jitter" jitter;
    Ba_cli.non_negative "--messages" messages;
    Ba_cli.non_negative "--payload-size" payload_size;
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
    let spec ?start_at e =
      let config = Registry.config ~window ~rto ?modulus ~adaptive_rto:adaptive e () in
      Fabric.spec ~config ~messages ~payload_size ?start_at e.Registry.protocol
    in
    List.iter (fun (e, _) -> Ba_cli.accepts e.Registry.protocol (spec e).Fabric.config) mix;
    let jobs = Ba_cli.resolve_jobs jobs in
    let positive name v default =
      match v with
      | None -> default
      | Some v when v > 0 -> v
      | Some v -> reject "%s must be positive (got %d)" name v
    in
    match soak with
    | Some rounds ->
        if rounds < 1 then reject "--soak rounds must be positive (got %d)" rounds;
        let surge_at = positive "--surge-at" surge_at soak_surge_at_default in
        let stall_for = positive "--stall-for" stall_for soak_stall_for_default in
        let churners =
          match churn with
          | None -> 0
          | Some c when c >= 0 -> c
          | Some c -> reject "--churn must be >= 0 (got %d)" c
        in
        let fault =
          Option.map
            (fun name ->
              match Ba_verify.Chaos.class_of_name name with
              | Some c -> c
              | None -> reject "unknown fault class %S" name)
            fault
        in
        (* Fabric.run refuses a budget no flow fits in. *)
        Option.iter
          (fun budget ->
            Ba_cli.positive "--budget" budget;
            Ba_proto.Cell.check_budget ~budget (mix_specs ~spec mix))
          budget;
        fun () ->
          run_soak ~rounds ~mix ~spec ~loss ~ack_loss ~delay ~capacity ~seed ~budget ~surge_at
            ~stall_for ~churners ~fault ~jobs
    | None -> (
        match scale with
        | Some flows ->
            if flows < 1 then reject "--scale flows must be positive (got %d)" flows;
            let cell = positive "--cell" cell 1024 in
            let barrier = positive "--barrier" barrier 1000 in
            fun () ->
              run_scale ~flows ~mix ~spec ~loss ~ack_loss ~delay ~capacity ~seed ~jobs ~cell
                ~barrier
        | None -> (
            match sweep with
            | Some counts ->
                List.iter
                  (fun n -> if n < 1 then reject "--sweep counts must be positive (got %d)" n)
                  counts;
                fun () -> run_sweep ~counts ~mix ~spec ~loss ~ack_loss ~delay ~capacity ~seed ~jobs
            | None -> fun () -> run_fabric ~mix ~spec ~loss ~ack_loss ~delay ~capacity ~seed))
  in
  run ()

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
           pure function of the model parameters — byte-identical at any $(b,--jobs) — while \
           wall-clock figures go to stderr. Built for 100k-1M flows in bounded memory.")

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
      stall_for churn fault scale cell barrier jobs =
    let capacity = if no_capacity then None else capacity in
    run list_protocols connections mix messages payload_size loss ack_loss base_delay jitter
      capacity window rto modulus adaptive seed sweep soak budget surge_at stall_for churn
      fault scale cell barrier jobs
  in
  Cmd.v
    (Cmd.info "ba_net" ~doc ~man ~version:Ba_cli.version)
    Term.(
      const wrap $ list_protocols $ connections $ mix $ messages $ payload_size $ loss
      $ ack_loss $ base_delay $ jitter $ capacity $ no_capacity $ window $ rto $ modulus
      $ adaptive $ seed $ sweep $ soak $ budget $ surge_at $ stall_for $ churn $ fault
      $ scale $ cell_arg $ barrier_arg $ Ba_cli.jobs)

let () = exit (Cmd.eval' cmd)
