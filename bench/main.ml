(* Experiment tables, the N1 sim-vs-UDP table and the `--check` gate.

   `dune exec bench/main.exe` regenerates every table/figure of the
   reproduction (T1, T2, F1-F5, T3, T4 — see DESIGN.md for the mapping to
   the paper's claims), then N1, the same transfer over the simulator
   and over loopback UDP. Stdout is byte-reproducible: N1's UDP rows,
   which carry this machine's wall clock, go to stderr. Timing the data
   path is `ba_bench`'s job (bench/e2e); no leg of `--check` is timed.

   Flags (any other argument prints the usage line and exits 2):
     --quick       shrink message counts / seed sets (CI-sized)
     --jobs N      worker domains for the experiment grids (env BA_JOBS;
                   default: the machine's recommended domain count);
                   tables are byte-identical at any N
     --check       run the performance gate alone (see [check] below)
                   and exit non-zero if any of its legs fails *)

(* One channel, one config, every protocol: the gate's transfers all
   run under this config so the comparison is apples-to-apples. It
   enables acknowledgment coalescing (30 ticks) because that is the
   block-ack protocol's defining feature — the baselines do not read
   [ack_coalesce], so their runs are unaffected, while block ack
   acknowledges runs in blocks the way the paper intends instead of
   being benchmarked with its headline mechanism switched off.
   [rto = 300 > 2*max_transit + ack_coalesce = 130] keeps timeout
   soundness. *)
let losses_config =
  Blockack.Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~ack_coalesce:30
    ~max_transit:50 ()

let per_msg n delivered = float_of_int n /. float_of_int (max 1 delivered)

(* Minor-heap bytes one run of [f] allocates, after a warm-up run that
   fills the frame pool, forces lazy initialisers and resizes arenas.
   Unlike wall-clock this is deterministic: the same code path allocates
   the same bytes every time, so it can be pinned by [--check]. *)
let alloc_per_run f =
  f ();
  let runs = 4 in
  (* [Gc.allocated_bytes] reads counters sampled at the last minor
     collection (OCaml 5), so flush the minor heap before each reading —
     unflushed deltas are quantized garbage. *)
  Gc.minor ();
  let a0 = Gc.allocated_bytes () in
  for _ = 1 to runs do
    f ()
  done;
  Gc.minor ();
  let a1 = Gc.allocated_bytes () in
  (a1 -. a0) /. float_of_int runs

(* ---- `--check`: the counted-work gate --------------------------------
   Every leg gates a count — frames, bytes, datagrams — never a time, so
   no verdict turns on how fast the host happened to run. Timing is
   ba_bench's job (bench/e2e).

   The first two legs:
   1. frames per delivered message (data + acknowledgment frames) on F1's
      lossy channel: 200 messages, 5% loss both ways, constant 50-tick
      delay. Block ack must spend no more than the cheaper of go-back-N
      and selective repeat, the paper's claim that acknowledging runs in
      blocks costs fewer frames for the same recovery. The simulation is
      deterministic, so the comparison needs no noise margin;
   2. the steady-state allocation slope — marginal heap bytes per
      additional frame, the fixed setup cost cancelled by differencing
      two run lengths — must stay under [alloc_slope_budget]. At 32 B
      payloads it reads 88 B: the payload string (48 B), its [Some]
      (16 B), the message's latency sample slot and the result's copy
      of it (8 B each), and the summary's sorted copy (8 B). The frame
      path contributes none. The budget fails a latency result kept as
      a boxed float list again (157 B). *)

let alloc_slope_budget = 128.

let frames_per_msg proto =
  let module H = Ba_proto.Harness in
  let r =
    H.run proto ~seed:3 ~messages:200 ~config:losses_config ~data_loss:0.05 ~ack_loss:0.05
      ~data_delay:(Ba_channel.Dist.Constant 50) ~ack_delay:(Ba_channel.Dist.Constant 50) ()
  in
  assert r.H.completed;
  per_msg (r.H.data_sent + r.H.acks_sent) r.H.delivered

(* ---- the sharded scale workload -----------------------------------
   The cell-partitioned fabric (Ba_proto.Shard), uncontended, two
   messages per flow on one domain: the third leg of the gate. *)

let scale_run flows =
  let e =
    match Ba_registry.Registry.find "blockack-multi" with
    | Some e -> e
    | None -> assert false
  in
  let config = Ba_registry.Registry.config ~window:8 ~rto:400 e () in
  let specs =
    List.init flows (fun _ ->
        Ba_proto.Fabric.spec ~config ~messages:2 e.Ba_registry.Registry.protocol)
  in
  let r = Ba_proto.Shard.run ~seed:11 ~jobs:1 ~measure_mem:true specs in
  assert r.Ba_proto.Shard.completed;
  r

(* ---- the real-transport table (N1) ----------------------------------
   The same protocol, config and fault plan run twice: once over the
   simulated channel (virtual ticks, mapped to milliseconds at the
   transport's tick_us) and once over real loopback UDP through lib/net
   — sockets, wall-clock retransmission timers and the socket-boundary
   impairment shim. Sim-side counters are deterministic; the UDP side's
   throughput and latency are this machine's. *)

let net_tick_us = 200
let net_plan_str = "ge(0.02->0.3,l=0.05/0.3)+dup(0.03x2)+spike(0.03,+30)"

let net_plan () =
  match Ba_channel.Fault_plan.of_string net_plan_str with
  | Ok p -> p
  | Error e -> failwith e

let net_entry () =
  match Ba_registry.Registry.find "blockack" with Some e -> e | None -> assert false

(* rto 250 ticks = 50 ms of real silence at tick_us = 200; modulus
   defaults to the registry's 2w for blockack. *)
let net_config e = Ba_registry.Registry.config ~window:16 ~rto:250 e ()

(* One N1 row. [acks] is acknowledgment frames sent; [frames] is frames
   in both directions: offered to the links in sim, [sendto] calls on
   udp. Both are shown per delivered message. [clean] is delivered
   exactly once, in order, digest intact. *)
let n1_row backend ~lossy ~completed ~msgs_s ~retx ~p50_ms ~p99_ms ~acks ~frames ~delivered
    ~clean =
  [
    backend;
    (if lossy then "lossy" else "none");
    string_of_bool completed;
    Printf.sprintf "%.0f" msgs_s;
    string_of_int retx;
    Printf.sprintf "%.1f" p50_ms;
    Printf.sprintf "%.1f" p99_ms;
    Printf.sprintf "%.3f" (per_msg acks delivered);
    Printf.sprintf "%.3f" (per_msg frames delivered);
    string_of_bool clean;
  ]

let net_sim_row ~messages ~lossy =
  let module H = Ba_proto.Harness in
  let e = net_entry () in
  (* Fresh plan values per link: a compiled plan carries per-link fault
     state, so the two directions must not share one. *)
  let data_plan = if lossy then Some (net_plan ()) else None in
  let ack_plan = if lossy then Some (net_plan ()) else None in
  let r =
    H.run e.Ba_registry.Registry.protocol ~seed:3 ~messages ~payload_size:32
      ~config:(net_config e) ~data_delay:(Ba_channel.Dist.Constant 1)
      ~ack_delay:(Ba_channel.Dist.Constant 1) ?data_plan ?ack_plan ()
  in
  let ms_of_ticks t = t *. float_of_int net_tick_us /. 1000. in
  let latency_ms f = match r.H.latency with Some s -> ms_of_ticks (f s) | None -> 0. in
  let wall_virtual_s = float_of_int r.H.ticks *. float_of_int net_tick_us *. 1e-6 in
  n1_row "sim" ~lossy ~completed:r.H.completed
    ~msgs_s:(if wall_virtual_s > 0. then float_of_int r.H.delivered /. wall_virtual_s else 0.)
    ~retx:r.H.retransmissions
    ~p50_ms:(latency_ms (fun s -> s.Ba_util.Stats.p50))
    ~p99_ms:(latency_ms (fun s -> s.Ba_util.Stats.p99))
    ~acks:r.H.acks_sent ~frames:(r.H.data_sent + r.H.acks_sent) ~delivered:r.H.delivered
    ~clean:(H.correct r)

let net_udp_outcome ?(payload_size = 32) ?on_setup ~messages ~lossy () =
  let e = net_entry () in
  let plan = if lossy then Some (net_plan ()) else None in
  Ba_transport.Endpoint.Pair.run ~protocol:e.Ba_registry.Registry.protocol
    ~config:(net_config e) ~messages ~payload_size ~wseed:3 ?plan ~impair_seed:11
    ~tick_us:net_tick_us ~deadline_s:45. ?on_setup ()

let net_udp_clean (o : Ba_transport.Endpoint.Pair.outcome) =
  o.Ba_transport.Endpoint.Pair.completed
  && o.Ba_transport.Endpoint.Pair.duplicates = 0
  && o.Ba_transport.Endpoint.Pair.misordered = 0
  && o.Ba_transport.Endpoint.Pair.corrupted = 0
  && o.Ba_transport.Endpoint.Pair.digest = o.Ba_transport.Endpoint.Pair.digest_expected

let net_udp_row ~messages ~lossy =
  let open Ba_transport.Endpoint.Pair in
  let o = net_udp_outcome ~messages ~lossy () in
  let module Q = Ba_util.Qsketch in
  let q p = if Q.count o.latency_ms = 0 then 0. else Q.quantile o.latency_ms p in
  n1_row "udp" ~lossy ~completed:o.completed ~msgs_s:o.msgs_per_s ~retx:o.retransmissions
    ~p50_ms:(q 0.5) ~p99_ms:(q 0.99) ~acks:o.ack_datagrams ~frames:o.frames_tx
    ~delivered:o.delivered ~clean:(net_udp_clean o)

let net_table ~quick =
  let messages = if quick then 120 else 300 in
  let headers =
    [
      "backend"; "faults"; "completed"; "msgs/s"; "retx"; "p50 ms"; "p99 ms"; "acks/msg";
      "dgrams/msg"; "clean";
    ]
  in
  Printf.printf
    "\n=== real-transport campaign (N1: sim vs loopback UDP, blockack, %d x 32 B) ===\n" messages;
  Ba_util.Table.print ~headers
    [ net_sim_row ~messages ~lossy:false; net_sim_row ~messages ~lossy:true ];
  (* The UDP rows carry this machine's wall clock (msgs/s, latency) and
     its scheduling (retransmissions), so they go to stderr and stdout
     stays byte-reproducible. *)
  let udp = [ net_udp_row ~messages ~lossy:false; net_udp_row ~messages ~lossy:true ] in
  flush stdout;
  prerr_string (Ba_util.Table.render ~headers udp)

let check () =
  let verdict ok = if ok then "within" else "EXCEEDS" in
  let blockack = frames_per_msg Blockack.Protocols.multi in
  let baseline_name, baseline =
    List.fold_left
      (fun (bn, bf) (n, f) -> if f < bf then (n, f) else (bn, bf))
      ("", infinity)
      [
        ("go-back-n", frames_per_msg Ba_baselines.Go_back_n.protocol);
        ("selective-repeat", frames_per_msg Ba_baselines.Selective_repeat.protocol);
      ]
  in
  let frames_ok = blockack <= baseline in
  Printf.printf "check: frames blockack-5pc %.3f/msg %s cheapest baseline (%s %.3f/msg)\n"
    blockack (verdict frames_ok) baseline_name baseline;
  let xfer messages () =
    let r =
      Ba_proto.Harness.run Blockack.Protocols.multi ~seed:3 ~messages ~config:losses_config
        ~data_delay:(Ba_channel.Dist.Constant 50) ~ack_delay:(Ba_channel.Dist.Constant 50) ()
    in
    assert r.Ba_proto.Harness.completed
  in
  let a1 = alloc_per_run (xfer 200) in
  let a2 = alloc_per_run (xfer 400) in
  let slope = (a2 -. a1) /. 200. in
  let alloc_ok = slope <= alloc_slope_budget in
  Printf.printf "check: alloc slope %.0f B/frame %s budget (%.0f B/frame)\n" slope
    (verdict alloc_ok) alloc_slope_budget;
  (* 3. the sharded fabric must hold its per-flow state at 100k flows.
     The figure is a deterministic [Gc] live-words delta (1,195 B/flow
     on a 2-vCPU x86-64 host), so its ceiling needs no noise headroom:
     ~8.5% catches a flow whose window arrays are sized to the
     configured window again instead of to its flight (+144 B). *)
  let scale_state_ceiling = 1_300 in
  let flows = 100_000 in
  let b_per_flow = (scale_run flows).Ba_proto.Shard.state_bytes / max 1 flows in
  let state_ok = b_per_flow <= scale_state_ceiling in
  Printf.printf "check: scale state %d B/flow %s ceiling (%d B/flow)\n" b_per_flow
    (verdict state_ok) scale_state_ceiling;
  (* 4. the real transport must carry a blockack transfer over loopback
     UDP through the 5%-baseline impairment shim: completion and zero
     safety violations (no duplicate, misordered or corrupted delivery,
     digest intact). A stalled run fails through [completed]: the pair
     gives up at its own 45 s deadline. *)
  let net_messages = 150 in
  let o = net_udp_outcome ~messages:net_messages ~lossy:true () in
  let open Ba_transport.Endpoint.Pair in
  let net_ok = net_udp_clean o in
  Printf.printf
    "check: net loopback %d/%d %s under impairment (dup=%d ooo=%d corrupt=%d digest %s)\n"
    o.delivered net_messages
    (if net_ok then "clean" else "NOT CLEAN")
    o.duplicates o.misordered o.corrupted
    (if o.digest = o.digest_expected then "ok" else "MISMATCH");
  (* 5. block acknowledgment on real sockets: the server merges the
     adjacent acks of one socket drain into one datagram, so a clean
     transfer must send at most [ack_budget] ack datagrams per delivered
     message (about 1/16 at window 16). *)
  let ack_budget = 0.5 in
  let ack_messages = 2000 in
  let u = net_udp_outcome ~payload_size:16 ~messages:ack_messages ~lossy:false () in
  let u_clean = if net_udp_clean u then "clean" else "NOT CLEAN" in
  let acks_per_msg = per_msg u.ack_datagrams u.delivered in
  let acks_ok = net_udp_clean u && acks_per_msg <= ack_budget in
  Printf.printf "check: net acks %.3f datagrams/msg %s budget (%.1f/msg; %d/%d %s)\n"
    acks_per_msg
    (verdict (acks_per_msg <= ack_budget))
    ack_budget u.delivered ack_messages u_clean;
  (* 6. block sends on real sockets: the client packs each pumped burst
     of data frames into one datagram, so the same clean transfer must
     send at most [data_budget] data datagrams per delivered message
     (about 1/16 at window 16). *)
  let data_budget = 0.25 in
  let data_per_msg = per_msg u.data_datagrams u.delivered in
  let data_ok = net_udp_clean u && data_per_msg <= data_budget in
  Printf.printf "check: net data %.3f datagrams/msg %s budget (%.2f/msg; %d/%d %s)\n"
    data_per_msg
    (verdict (data_per_msg <= data_budget))
    data_budget u.delivered ack_messages u_clean;
  (* 7. per-connection state on real sockets: the live heap a loopback
     pair holds once both drivers and endpoints are built, as ba_bench
     measures udp-loopback (20k messages of 16 B). It is deterministic
     (~8 kB): the receive buffer is one per domain, so it is not
     counted here, and the ceiling catches a column per message, a
     buffer per driver or an encode buffer sized to the largest
     datagram (61 kB). *)
  let net_state_ceiling = 16_000 in
  let live_bytes () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let net_state = ref 0 in
  let live0 = live_bytes () in
  let s =
    net_udp_outcome ~payload_size:16 ~messages:20_000 ~lossy:false
      ~on_setup:(fun () -> net_state := live_bytes () - live0)
      ()
  in
  let net_state_ok = net_udp_clean s && !net_state <= net_state_ceiling in
  Printf.printf "check: net state %d B/conn %s ceiling (%d B/conn)\n" !net_state
    (verdict (!net_state <= net_state_ceiling))
    net_state_ceiling;
  (* 8. a one-flow cell's state at 100k messages: the live heap after
     [Cell.create] (blockack, window 16). The per-message accounting is
     a flight ring of 2w slots, so nothing grows with the transfer and
     the total is ~5 kB; one bit per message would add 25 kB, one int or
     payload column 800 kB. The figure is deterministic: the ~25%
     headroom over the measured 5,008 B is for layout changes elsewhere
     in the cell, not for noise. *)
  let cell_state_ceiling = 6_250 in
  let before = live_bytes () in
  let cell =
    Ba_proto.Cell.create ~engine_seed:3 ~wseed:Fun.id ~data_loss:0. ~ack_loss:0.
      ~data_delay:(Ba_channel.Dist.Constant 50) ~ack_delay:(Ba_channel.Dist.Constant 50)
      [ Ba_proto.Cell.spec ~config:losses_config ~messages:100_000 Blockack.Protocols.multi ]
  in
  let cell_state = live_bytes () - before in
  ignore (Sys.opaque_identity cell);
  let cell_state_ok = cell_state <= cell_state_ceiling in
  Printf.printf "check: cell state %d B at 100k messages %s ceiling (%d B)\n" cell_state
    (verdict cell_state_ok) cell_state_ceiling;
  if
    frames_ok && alloc_ok && state_ok && net_ok && acks_ok && data_ok && net_state_ok
    && cell_state_ok
  then begin
    print_endline "check: OK";
    exit 0
  end
  else begin
    print_endline "check: FAIL";
    exit 1
  end

let usage () =
  prerr_endline "usage: main.exe [--quick] [--jobs N] [--check]";
  exit 2

let () =
  let quick = ref false in
  let check_wanted = ref false in
  (* --jobs N / --jobs=N, defaulting like the CLIs: BA_JOBS, then the
     machine's recommended domain count. *)
  let jobs = ref (Ba_parallel.Pool.default_jobs ()) in
  let set_jobs v =
    match int_of_string_opt v with
    | Some n when n >= 1 ->
        (* Same absurdity clamp as the CLIs' resolve_jobs. *)
        jobs := min n (Ba_parallel.Pool.max_jobs ())
    | Some _ | None ->
        Printf.eprintf "bench: --jobs must be a positive integer (got %S)\n" v;
        exit 2
  in
  let flags = [ ("--quick", quick); ("--check", check_wanted) ] in
  let rec scan = function
    | [] -> ()
    | arg :: rest when List.mem_assoc arg flags ->
        List.assoc arg flags := true;
        scan rest
    | "--jobs" :: v :: rest ->
        set_jobs v;
        scan rest
    | [ "--jobs" ] -> usage ()
    | arg :: rest when String.length arg > 7 && String.starts_with ~prefix:"--jobs=" arg ->
        set_jobs (String.sub arg 7 (String.length arg - 7));
        scan rest
    | arg :: _ ->
        Printf.eprintf "bench: unknown argument %S\n" arg;
        usage ()
  in
  scan (List.tl (Array.to_list Sys.argv));
  if !check_wanted then check ();
  let quick = !quick and jobs = !jobs in
  Printf.printf
    "Block Acknowledgment reproduction — experiment tables (%s mode, %d job%s)\n\
     Mapping to the paper's claims: see DESIGN.md; measured-vs-paper: EXPERIMENTS.md.\n"
    (if quick then "quick" else "full")
    jobs
    (if jobs = 1 then "" else "s");
  Ba_experiments.Experiments.run_all ~jobs ~quick ();
  net_table ~quick
