(* Experiment tables, campaign artefacts and the `--check` gate.

   `dune exec bench/main.exe` regenerates every table/figure of the
   reproduction (T1, T2, F1-F5, T3, T4 — see DESIGN.md for the mapping to
   the paper's claims), then the soak, sharded-scale and real-transport
   campaigns. Timing the data path is `ba_bench`'s job (bench/e2e); this
   program times only whole grids and campaigns, for the JSON artefact.

   Flags (any other argument prints the usage line and exits 2):
     --quick       shrink message counts / seed sets (CI-sized)
     --no-tables   skip the tables and, without --json, the campaigns
     --jobs N      worker domains for the experiment grids (env BA_JOBS;
                   default: the machine's recommended domain count);
                   tables are byte-identical at any N
     --selftime    time the full chaos matrix at --jobs 1 vs --jobs N
     --json FILE   write wall-clock per grid, self-timing and the
                   campaigns as JSON (the BENCH_campaigns.json schema)
     --check       run the performance gate alone (see [check] below)
                   and exit non-zero if any of its legs fails *)

module Experiments = Ba_experiments.Experiments

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

let transfer proto ~loss () =
  let r =
    Ba_proto.Harness.run proto ~seed:3 ~messages:200 ~config:losses_config ~data_loss:loss
      ~ack_loss:loss ~data_delay:(Ba_channel.Dist.Constant 50)
      ~ack_delay:(Ba_channel.Dist.Constant 50) ()
  in
  assert r.Ba_proto.Harness.completed

let reuse_transfer () =
  let config = Blockack.Config.make ~window:8 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:60 () in
  let r =
    Ba_proto.Harness.run (Blockack.Protocols.reuse ()) ~seed:3 ~messages:200 ~config
      ~data_loss:0.05 ~ack_loss:0.05 ~data_delay:(Ba_channel.Dist.Uniform (40, 60))
      ~ack_delay:(Ba_channel.Dist.Uniform (40, 60)) ()
  in
  assert r.Ba_proto.Harness.completed

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

let wall f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* ---- `--check`: the data-path performance gate ----------------------
   Exits non-zero if either regresses:
   1. block ack must not be slower than the slowest baseline transfer
      (go-back-N and selective repeat on F1's lossy channel, seq-reuse
      on F5's) — best-of-N wall clock, so scheduler noise only ever
      produces false passes, not false failures, on a loaded machine;
   2. the steady-state allocation slope — marginal heap bytes per
      additional frame, the fixed setup cost cancelled by differencing
      two run lengths — must stay under [alloc_slope_budget]. The slope
      is deterministic (same code path, same bytes), so this half of the
      gate is safe to pin in a cram test. The remaining slope is the
      workload generator and the latency sampler, not the frame path. *)

let alloc_slope_budget = 512.

(* ---- the sharded scale workload (S1 extension) ----------------------
   The cell-partitioned fabric (Ba_proto.Shard) at 1k -> 100k flows: the
   summary counters are deterministic, the wall seconds and flows/sec are
   this machine's. Feeds the scale table, the JSON artefact and the
   third leg of the --check gate. *)

let scale_points ~quick = if quick then [ 1_000; 10_000 ] else [ 1_000; 10_000; 100_000 ]

let scale_run ~jobs flows =
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
  let r, wall_s =
    Ba_proto.Shard.timed (fun ~measure_mem -> Ba_proto.Shard.run ~seed:11 ~jobs ~measure_mem specs)
  in
  assert r.Ba_proto.Shard.completed;
  (flows, wall_s, r)

let scale_campaign ~quick ~jobs =
  let rows = List.map (scale_run ~jobs) (scale_points ~quick) in
  print_endline "\n=== sharded scale campaign (flows vs throughput) ===";
  List.iter
    (fun (flows, wall_s, (r : Ba_proto.Shard.result)) ->
      Printf.printf
        "flows=%d wall=%.2fs flows/sec=%.0f state=%dB/flow ticks=%d goodput=%.2f/ktick\n"
        flows wall_s
        (if wall_s > 0. then float_of_int flows /. wall_s else 0.)
        (r.Ba_proto.Shard.state_bytes / max 1 flows)
        r.Ba_proto.Shard.ticks r.Ba_proto.Shard.aggregate_goodput)
    rows;
  rows

(* ---- the real-transport campaign (N1) -------------------------------
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

let per_msg n delivered = float_of_int n /. float_of_int (max 1 delivered)

type net_row = {
  nr_backend : string;  (** "sim" | "udp" *)
  nr_faults : string;  (** "none" | "lossy" (the 5%-baseline shim plan) *)
  nr_completed : bool;
  nr_msgs_s : float;
  nr_retx : int;
  nr_p50_ms : float;
  nr_p99_ms : float;
  nr_acks_per_msg : float;  (** acknowledgment frames sent per delivered message *)
  nr_dgrams_per_msg : float;
      (** frames per delivered message, both directions: offered to the
          links in sim, [sendto] calls on udp *)
  nr_clean : bool;  (** delivered exactly once, in order, digest intact *)
}

let net_sim_row ~messages ~lossy =
  let e = net_entry () in
  (* Fresh plan values per link: a compiled plan carries per-link fault
     state, so the two directions must not share one. *)
  let data_plan = if lossy then Some (net_plan ()) else None in
  let ack_plan = if lossy then Some (net_plan ()) else None in
  let r =
    Ba_proto.Harness.run e.Ba_registry.Registry.protocol ~seed:3 ~messages ~payload_size:32
      ~config:(net_config e) ~data_delay:(Ba_channel.Dist.Constant 1)
      ~ack_delay:(Ba_channel.Dist.Constant 1) ?data_plan ?ack_plan ()
  in
  let ms_of_ticks t = t *. float_of_int net_tick_us /. 1000. in
  let wall_virtual_s = float_of_int r.Ba_proto.Harness.ticks *. float_of_int net_tick_us *. 1e-6 in
  {
    nr_backend = "sim";
    nr_faults = (if lossy then "lossy" else "none");
    nr_completed = r.Ba_proto.Harness.completed;
    nr_msgs_s =
      (if wall_virtual_s > 0. then float_of_int r.Ba_proto.Harness.delivered /. wall_virtual_s
       else 0.);
    nr_retx = r.Ba_proto.Harness.retransmissions;
    nr_p50_ms =
      (match r.Ba_proto.Harness.latency with Some s -> ms_of_ticks s.Ba_util.Stats.p50 | None -> 0.);
    nr_p99_ms =
      (match r.Ba_proto.Harness.latency with Some s -> ms_of_ticks s.Ba_util.Stats.p99 | None -> 0.);
    nr_acks_per_msg = per_msg r.Ba_proto.Harness.acks_sent r.Ba_proto.Harness.delivered;
    nr_dgrams_per_msg =
      per_msg (r.Ba_proto.Harness.data_sent + r.Ba_proto.Harness.acks_sent)
        r.Ba_proto.Harness.delivered;
    nr_clean = Ba_proto.Harness.correct r;
  }

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
  {
    nr_backend = "udp";
    nr_faults = (if lossy then "lossy" else "none");
    nr_completed = o.completed;
    nr_msgs_s = o.msgs_per_s;
    nr_retx = o.retransmissions;
    nr_p50_ms = q 0.5;
    nr_p99_ms = q 0.99;
    nr_acks_per_msg = per_msg o.ack_datagrams o.delivered;
    nr_dgrams_per_msg = per_msg o.frames_tx o.delivered;
    nr_clean = net_udp_clean o;
  }

let net_campaign ~quick =
  let messages = if quick then 120 else 300 in
  let rows =
    [
      net_sim_row ~messages ~lossy:false;
      net_udp_row ~messages ~lossy:false;
      net_sim_row ~messages ~lossy:true;
      net_udp_row ~messages ~lossy:true;
    ]
  in
  Printf.printf
    "\n=== real-transport campaign (N1: sim vs loopback UDP, blockack, %d x 32 B) ===\n" messages;
  Ba_util.Table.print
    ~headers:
      [
        "backend"; "faults"; "completed"; "msgs/s"; "retx"; "p50 ms"; "p99 ms"; "acks/msg";
        "dgrams/msg"; "clean";
      ]
    (List.map
       (fun r ->
         [
           r.nr_backend;
           r.nr_faults;
           string_of_bool r.nr_completed;
           Printf.sprintf "%.0f" r.nr_msgs_s;
           string_of_int r.nr_retx;
           Printf.sprintf "%.1f" r.nr_p50_ms;
           Printf.sprintf "%.1f" r.nr_p99_ms;
           Printf.sprintf "%.3f" r.nr_acks_per_msg;
           Printf.sprintf "%.3f" r.nr_dgrams_per_msg;
           string_of_bool r.nr_clean;
         ])
       rows);
  rows

(* Warm every workload, then interleave the timed rounds round-robin.
   Measuring one workload's N runs back-to-back before the next one even
   starts biases the comparison: process and machine state (branch
   predictors, frequency scaling, background load) drift monotonically
   warmer, so whichever workload is measured first is systematically
   penalised. Interleaving exposes every workload to the same drift, so
   only the per-round noise remains — and best-of filters that out. *)
let interleaved_best rounds fs =
  Array.iter (fun f -> f (); f ()) fs;
  let best = Array.map (fun _ -> infinity) fs in
  for _ = 1 to rounds do
    Array.iteri
      (fun i f ->
        let t0 = Unix.gettimeofday () in
        f ();
        let dt = Unix.gettimeofday () -. t0 in
        if dt < best.(i) then best.(i) <- dt)
      fs
  done;
  best

let check () =
  let best =
    interleaved_best 9
      [|
        transfer Blockack.Protocols.multi ~loss:0.05;
        transfer Ba_baselines.Go_back_n.protocol ~loss:0.05;
        transfer Ba_baselines.Selective_repeat.protocol ~loss:0.05;
        reuse_transfer;
      |]
  in
  let blockack = best.(0) in
  let baselines =
    [
      ("F1/transfer-gbn-5pc", best.(1));
      ("F1/transfer-selrep-5pc", best.(2));
      ("F5/transfer-reuse-5pc", best.(3));
    ]
  in
  let slowest_name, slowest =
    List.fold_left
      (fun (bn, bt) (n, t) -> if t > bt then (n, t) else (bn, bt))
      ("", neg_infinity) baselines
  in
  (* Best-of filters per-round noise, but blockack sits at parity with
     the slowest baseline, so on a loaded or throttled host the raw
     comparison flips on single-digit drift. The gate therefore carries
     a 1.5x margin: a real data-path regression (an accidental O(n)
     scan, a lost pool) shows up as a multiple, and parity drift never
     fails the build. *)
  let time_margin = 1.5 in
  let time_ok = blockack <= slowest *. time_margin in
  Printf.printf "check: blockack-5pc %.0f us %s slowest baseline (%s %.0f us, 1.5x margin)\n"
    (blockack *. 1e6)
    (if time_ok then "within" else "EXCEEDS")
    slowest_name (slowest *. 1e6);
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
    (if alloc_ok then "within" else "EXCEEDS")
    alloc_slope_budget;
  (* 3. the sharded fabric must hold its scale envelope at 100k flows:
     sustain the flows/sec floor and stay under the per-flow state
     ceiling. The floor carries ~4x headroom over the reference
     container (23k flows/sec), so scheduler noise cannot trip it. The
     state figure is a deterministic [Gc] live-words delta (1,220 B/flow
     on a 2-vCPU x86-64 host), so its ceiling needs no noise headroom:
     ~6.5% catches a flow whose window arrays are sized to the
     configured window again instead of to its flight (+144 B). *)
  let scale_floor_fps = 5_000. in
  let scale_state_ceiling = 1_300 in
  let flows, wall_s, r = scale_run ~jobs:1 100_000 in
  let fps = if wall_s > 0. then float_of_int flows /. wall_s else infinity in
  let b_per_flow = r.Ba_proto.Shard.state_bytes / max 1 flows in
  let fps_ok = fps >= scale_floor_fps in
  let state_ok = b_per_flow <= scale_state_ceiling in
  Printf.printf "check: scale 100k flows %.0f flows/sec %s floor (%.0f flows/sec)\n" fps
    (if fps_ok then ">=" else "BELOW")
    scale_floor_fps;
  Printf.printf "check: scale state %d B/flow %s ceiling (%d B/flow)\n" b_per_flow
    (if state_ok then "within" else "EXCEEDS")
    scale_state_ceiling;
  (* 4. the real transport must carry a blockack transfer over loopback
     UDP through the 5%-baseline impairment shim: completion, zero
     safety violations (no duplicate, misordered or corrupted delivery,
     digest intact) and bounded wall time. The cap carries ~10x headroom
     over the reference container so scheduler noise cannot trip it. *)
  let net_messages = 150 in
  let net_cap_s = 30. in
  let o, net_wall =
    wall (fun () -> net_udp_outcome ~messages:net_messages ~lossy:true ())
  in
  let open Ba_transport.Endpoint.Pair in
  let net_wall_ok = net_wall <= net_cap_s in
  let net_ok = net_udp_clean o && net_wall_ok in
  Printf.printf
    "check: net loopback %d/%d %s under impairment (dup=%d ooo=%d corrupt=%d digest %s, wall \
     %.1fs %s %.0fs cap)\n"
    o.delivered net_messages
    (if net_udp_clean o then "clean" else "NOT CLEAN")
    o.duplicates o.misordered o.corrupted
    (if o.digest = o.digest_expected then "ok" else "MISMATCH")
    net_wall
    (if net_wall_ok then "within" else "EXCEEDS")
    net_cap_s;
  (* 5. block acknowledgment on real sockets: the server merges the
     adjacent acks of one socket drain into one datagram, so a clean
     transfer must send at most [ack_budget] ack datagrams per delivered
     message (about 1/16 at window 16). Allocation is reported per
     message, not gated per datagram: merging shrinks that denominator,
     so a per-datagram figure rises while the total falls. *)
  let ack_budget = 0.5 in
  let ack_messages = 2000 in
  let udp () = net_udp_outcome ~payload_size:16 ~messages:ack_messages ~lossy:false () in
  let u = udp () in
  let udp_alloc = alloc_per_run (fun () -> ignore (udp ())) /. float_of_int ack_messages in
  let acks_per_msg = per_msg u.ack_datagrams u.delivered in
  let acks_ok = net_udp_clean u && acks_per_msg <= ack_budget in
  Printf.printf
    "check: net acks %.3f datagrams/msg %s budget (%.1f/msg; %d/%d %s, alloc %.0f B/msg)\n"
    acks_per_msg
    (if acks_per_msg <= ack_budget then "within" else "EXCEEDS")
    ack_budget u.delivered ack_messages
    (if net_udp_clean u then "clean" else "NOT CLEAN")
    udp_alloc;
  (* 6. block sends on real sockets: the client packs each pumped burst
     of data frames into one datagram, so the same clean transfer must
     send at most [data_budget] data datagrams per delivered message
     (about 1/16 at window 16). *)
  let data_budget = 0.25 in
  let data_per_msg = per_msg u.data_datagrams u.delivered in
  let data_ok = net_udp_clean u && data_per_msg <= data_budget in
  Printf.printf "check: net data %.3f datagrams/msg %s budget (%.2f/msg; %d/%d %s)\n"
    data_per_msg
    (if data_per_msg <= data_budget then "within" else "EXCEEDS")
    data_budget u.delivered ack_messages
    (if net_udp_clean u then "clean" else "NOT CLEAN");
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
    (if !net_state <= net_state_ceiling then "within" else "EXCEEDS")
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
    (if cell_state_ok then "within" else "EXCEEDS")
    cell_state_ceiling;
  if
    time_ok && alloc_ok && fps_ok && state_ok && net_ok && acks_ok && data_ok && net_state_ok
    && cell_state_ok
  then begin
    print_endline "check: OK";
    exit 0
  end
  else begin
    print_endline "check: FAIL";
    exit 1
  end

(* The soak acceptance workload: a churning fabric under composed storms,
   every round's latencies folded into one constant-space quantile sketch.
   Wall clock, peak fabric memory and the sketch's fixed footprint land in
   the JSON artefact, so soak-path regressions show up across commits. *)
let soak_campaign ~quick ~jobs =
  let module Soak = Ba_verify.Soak in
  let module Qsketch = Ba_util.Qsketch in
  let rounds = if quick then 4 else 8 in
  let messages = if quick then 20 else 40 in
  let run_round round =
    let seed = 42 + round in
    Soak.round ~fault:Ba_verify.Chaos.Storm ~base:2 ~churn_from:2 ~seed
      (Ba_proto.Fabric.churn ~base:2 ~churners:2 ~messages ~config:Ba_verify.Chaos.robust_config
         ~seed Blockack.Protocols.multi)
  in
  let s, wall_s = wall (fun () -> Soak.fold ~on_round:(fun _ _ -> ()) ~jobs ~rounds run_round) in
  let sketch = s.Soak.sketch in
  Printf.printf
    "\n=== soak campaign (churn + storm) ===\nrounds=%d wall=%.3fs mem-peak=%dB latency \
     n=%d sketch=%dB\n"
    rounds wall_s s.Soak.peak (Qsketch.count sketch) (Qsketch.mem_bytes sketch);
  if not s.Soak.pass then begin
    print_endline "FAIL: soak campaign verdict";
    exit 1
  end;
  (rounds, wall_s, s.Soak.peak, Qsketch.count sketch, Qsketch.mem_bytes sketch)

(* The acceptance workload: the full chaos matrix (C1's seeds x faults x
   protocols grid), timed sequentially and at the requested job count.
   Byte-identical tables are asserted, not assumed. *)
let selftime_chaos_matrix ~quick ~jobs =
  let t_seq, s_seq = wall (fun () -> Experiments.c1_chaos_matrix ~jobs:1 ~quick ()) in
  let t_par, s_par = wall (fun () -> Experiments.c1_chaos_matrix ~jobs ~quick ()) in
  if t_seq <> t_par then begin
    print_endline "FAIL: chaos matrix differs between --jobs 1 and --jobs N";
    exit 1
  end;
  let speedup = if s_par > 0. then s_seq /. s_par else nan in
  Printf.printf
    "\n=== self-timed chaos matrix (%s mode) ===\njobs=1: %.3fs  jobs=%d: %.3fs  speedup: %.2fx \
     (host reports %d core%s)\n"
    (if quick then "quick" else "full")
    s_seq jobs s_par speedup
    (Domain.recommended_domain_count ())
    (if Domain.recommended_domain_count () = 1 then "" else "s");
  (s_seq, s_par, speedup)

let write_json file ~quick ~jobs ~grid_times ~selftime ~soak ~scale ~net =
  let open Ba_util.Json in
  let soak_json =
    match soak with
    | None -> Null
    | Some (rounds, wall_s, mem_peak, n, sketch_bytes) ->
        Obj
          [
            ("workload", String "churn-storm-soak");
            ("rounds", Int rounds);
            ("wall_s", Float wall_s);
            ("mem_peak_bytes", Int mem_peak);
            ("latency_samples", Int n);
            ("sketch_bytes", Int sketch_bytes);
          ]
  in
  let selftime_json =
    match selftime with
    | None -> Null
    | Some (s_seq, s_par, speedup) ->
        Obj
          [
            ("grid", String "C1-chaos-matrix");
            ("jobs", Int jobs);
            ("host_cores", Int (Domain.recommended_domain_count ()));
            ("jobs_1_wall_s", Float s_seq);
            ("jobs_n_wall_s", Float s_par);
            ("speedup", Float speedup);
          ]
  in
  let scale_json =
    List
      (List.map
         (fun (flows, wall_s, (r : Ba_proto.Shard.result)) ->
           Obj
             [
               ("flows", Int flows);
               ("wall_s", Float wall_s);
               ( "flows_per_sec",
                 Float (if wall_s > 0. then float_of_int flows /. wall_s else 0.) );
               ("state_bytes_per_flow", Int (r.Ba_proto.Shard.state_bytes / max 1 flows));
               ("ticks", Int r.Ba_proto.Shard.ticks);
               ("goodput_per_ktick", Float r.Ba_proto.Shard.aggregate_goodput);
             ])
         scale)
  in
  let net_json =
    List
      (List.map
         (fun r ->
           Obj
             [
               ("backend", String r.nr_backend);
               ("faults", String r.nr_faults);
               ("completed", Bool r.nr_completed);
               ("msgs_per_s", Float r.nr_msgs_s);
               ("retransmissions", Int r.nr_retx);
               ("p50_ms", Float r.nr_p50_ms);
               ("p99_ms", Float r.nr_p99_ms);
               ("acks_per_msg", Float r.nr_acks_per_msg);
               ("datagrams_per_msg", Float r.nr_dgrams_per_msg);
               ("clean", Bool r.nr_clean);
             ])
         net)
  in
  let json =
    Obj
      [
        ("schema", String "blockack/BENCH_campaigns/v1");
        ("mode", String (if quick then "quick" else "full"));
        ("jobs", Int jobs);
        ("host_recommended_domains", Int (Domain.recommended_domain_count ()));
        ( "grids",
          List
            (List.map
               (fun (id, dt) -> Obj [ ("id", String id); ("wall_s", Float dt) ])
               grid_times) );
        ("selftime", selftime_json);
        ("soak", soak_json);
        ("scale", scale_json);
        ("net", net_json);
      ]
  in
  let oc = open_out file in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> to_channel oc json);
  Printf.printf "\nwrote %s\n" file

let usage () =
  prerr_endline
    "usage: main.exe [--quick] [--no-tables] [--jobs N] [--selftime] [--json FILE] [--check]";
  exit 2

let () =
  let quick = ref false and no_tables = ref false in
  let selftime_wanted = ref false and check_wanted = ref false in
  (* --jobs N / --jobs=N, defaulting like the CLIs: BA_JOBS, then the
     machine's recommended domain count. *)
  let jobs = ref (Ba_parallel.Pool.default_jobs ()) in
  let json_file = ref None in
  let set_jobs v =
    match int_of_string_opt v with
    | Some n when n >= 1 ->
        (* Same absurdity clamp as the CLIs' resolve_jobs. *)
        jobs := min n (Ba_parallel.Pool.max_jobs ())
    | Some _ | None ->
        Printf.eprintf "bench: --jobs must be a positive integer (got %S)\n" v;
        exit 2
  in
  let flags =
    [
      ("--quick", quick);
      ("--no-tables", no_tables);
      ("--selftime", selftime_wanted);
      ("--check", check_wanted);
    ]
  in
  let unknown arg =
    Printf.eprintf "bench: unknown argument %S\n" arg;
    usage ()
  in
  let rec scan = function
    | [] -> ()
    | arg :: rest when List.mem_assoc arg flags ->
        List.assoc arg flags := true;
        scan rest
    | "--jobs" :: v :: rest ->
        set_jobs v;
        scan rest
    | "--json" :: f :: rest ->
        json_file := Some f;
        scan rest
    | [ ("--jobs" | "--json") ] -> usage ()
    | arg :: rest ->
        (match String.index_opt arg '=' with
        | Some i when String.length arg > i + 1 -> (
            let v = String.sub arg (i + 1) (String.length arg - i - 1) in
            match String.sub arg 0 i with
            | "--jobs" -> set_jobs v
            | "--json" -> json_file := Some v
            | _ -> unknown arg)
        | Some _ | None -> unknown arg);
        scan rest
  in
  scan (List.tl (Array.to_list Sys.argv));
  if !check_wanted then check ();
  let quick = !quick and no_tables = !no_tables and jobs = !jobs in
  let grid_times = ref [] in
  if not no_tables then begin
    Printf.printf
      "Block Acknowledgment reproduction — experiment tables (%s mode, %d job%s)\n\
       Mapping to the paper's claims: see DESIGN.md; measured-vs-paper: EXPERIMENTS.md.\n"
      (if quick then "quick" else "full")
      jobs
      (if jobs = 1 then "" else "s");
    List.iter
      (fun (id, grid) ->
        let table, dt = wall (fun () -> grid ~quick ~jobs) in
        Experiments.print_table table;
        grid_times := (id, dt) :: !grid_times)
      Experiments.grids
  end;
  (* --json always records the selftime block: an artefact with
     "selftime": null says nothing about the parallel runtime, which is
     exactly the field the scaling work is judged on. *)
  let selftime =
    if !selftime_wanted || !json_file <> None then Some (selftime_chaos_matrix ~quick ~jobs)
    else None
  in
  let campaigns = (not no_tables) || !json_file <> None in
  let soak = if campaigns then Some (soak_campaign ~quick ~jobs) else None in
  let scale = if campaigns then scale_campaign ~quick ~jobs else [] in
  let net = if campaigns then net_campaign ~quick else [] in
  match !json_file with
  | Some file ->
      write_json file ~quick ~jobs ~grid_times:(List.rev !grid_times) ~selftime ~soak ~scale ~net
  | None -> ()
