(* Experiment tables and the N1 sim-vs-UDP table.

   `dune exec bench/main.exe` regenerates every table/figure of the
   reproduction (T1, T2, F1-F5, T3, T4 — see DESIGN.md for the mapping to
   the paper's claims), then N1, the same transfer over the simulator
   and over loopback UDP. Stdout is byte-reproducible: N1's UDP rows,
   which carry this machine's wall clock, go to stderr. Timing the data
   path is `ba_bench`'s job (bench/e2e). The counted-work gates (frames
   per message, allocation slope, state ceilings, datagrams per message)
   are tests under test/ (test_e2e, test_net, test_fabric, test_shard),
   run by `dune runtest`.

   Flags (any other argument prints the usage line and exits 2):
     --quick       shrink message counts / seed sets (CI-sized)
     --jobs N      worker domains for the experiment grids (env BA_JOBS;
                   default: the machine's recommended domain count);
                   tables are byte-identical at any N *)

let per_msg n delivered = float_of_int n /. float_of_int (max 1 delivered)

(* ---- the real-transport table (N1) ----------------------------------
   The same protocol, config and fault plan run twice: once over the
   simulated channel (virtual ticks, mapped to milliseconds at the
   transport's tick_us) and once over real loopback UDP through lib/net
   — sockets, wall-clock retransmission timers and the socket-boundary
   impairment shim. Sim-side counters are deterministic; the UDP side's
   throughput and latency are this machine's. *)

let net_tick_us = 200

let net_plan () =
  match Ba_channel.Fault_plan.of_string "ge(0.02->0.3,l=0.05/0.3)+dup(0.03x2)+spike(0.03,+30)" with
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

let net_udp_row ~messages ~lossy =
  let open Ba_transport.Endpoint.Pair in
  let e = net_entry () in
  let plan = if lossy then Some (net_plan ()) else None in
  let o =
    run ~protocol:e.Ba_registry.Registry.protocol ~config:(net_config e) ~messages
      ~payload_size:32 ~wseed:3 ?plan ~impair_seed:11 ~tick_us:net_tick_us ~deadline_s:45. ()
  in
  let module Q = Ba_util.Qsketch in
  let q p = if Q.count o.latency_ms = 0 then 0. else Q.quantile o.latency_ms p in
  let n = Ba_util.Counters.get o.counters in
  n1_row "udp" ~lossy ~completed:o.completed ~msgs_s:o.msgs_per_s ~retx:(n Retransmissions)
    ~p50_ms:(q 0.5) ~p99_ms:(q 0.99) ~acks:(n Acks_sent) ~frames:(n Datagrams_tx)
    ~delivered:(n Delivered)
    ~clean:
      (o.completed
      && n Duplicates = 0
      && n Misordered = 0
      && n Corrupted = 0
      && o.digest = o.digest_expected)

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

let usage () =
  prerr_endline "usage: main.exe [--quick] [--jobs N]";
  exit 2

let () =
  let quick = ref false in
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
  let rec scan = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
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
  let quick = !quick and jobs = !jobs in
  Printf.printf
    "Block Acknowledgment reproduction — experiment tables (%s mode, %d job%s)\n\
     Mapping to the paper's claims: see DESIGN.md; measured-vs-paper: EXPERIMENTS.md.\n"
    (if quick then "quick" else "full")
    jobs
    (if jobs = 1 then "" else "s");
  Ba_experiments.Experiments.run_all ~jobs ~quick ();
  net_table ~quick
