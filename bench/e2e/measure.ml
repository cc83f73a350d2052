(* One workload in one process: the untraced run that gives the
   end-to-end metrics and the traced run that gives the per-layer ones. *)

module W = Workloads

(* ---- metric names and units -------------------------------------- *)

let end_to_end =
  [
    ("setup_s", "s");
    ("goodput_msgs_per_s", "msgs/s");
    ("cpu_us_per_msg", "us");
    ("heap_peak_mb", "MB");
    ("alloc_b_per_msg", "B");
    ("state_bytes_per_flow", "B");
  ]

let decode_boundary = "net.codec.decode"
let boundary_names = List.map Trace.name Trace.boundaries @ [ decode_boundary ]

let residual_names =
  [
    "proto.harness.residual";
    "proto.fabric.residual";
    "proto.shard.residual";
    "net.driver.residual";
  ]

let counters =
  [
    ("gc.minor_collections", "1/op");
    ("gc.major_collections", "1/op");
    ("gc.alloc_b_per_frame", "B/frame");
    ("core.sender.data_frames_per_msg", "frames/msg");
    ("core.sender.retx_per_msg", "frames/msg");
    ("core.receiver.acks_per_msg", "acks/msg");
    ("channel.link.queue_drop_frac", "ratio");
    ("net.driver.decode_errors", "1/op");
    ("net.driver.send_errors", "1/op");
    ("net.driver.wait_frac", "ratio");
    ("net.msg_latency_ms_p50", "ms");
    ("net.msg_latency_ms_p99", "ms");
    ("op.ms_p50", "ms");
    ("op.ms_p99", "ms");
    ("trace.overhead_frac", "ratio");
    ("host.calib_ns", "ns");
  ]

let per_layer =
  List.concat_map
    (fun b ->
      [
        (b ^ ".calls", "calls/op");
        (b ^ ".incl_ns", "ns/op");
        (b ^ ".self_ns", "ns/op");
        (b ^ ".self_share", "ratio");
      ])
    boundary_names
  @ List.concat_map
      (fun r -> [ (r ^ ".self_ns", "ns/op"); (r ^ ".self_share", "ratio") ])
      residual_names
  @ counters

(* ---- small statistics ------------------------------------------- *)

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* Linear interpolation between order statistics. *)
let percentile l p =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let r = p *. float_of_int (n - 1) in
    let i = int_of_float r in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((r -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median l = percentile l 0.5

(* Python's [statistics.quantiles(values, n=4)] (its default
   "exclusive" method), so spreads read the same as Python's. *)
let quartiles l =
  let a = sorted l in
  let ld = Array.length a in
  if ld < 2 then None
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    Some (q 1, q 3)

(* The relative interquartile spread, as a share of the median. *)
let spread l =
  match quartiles l with Some (q1, q3) -> (q3 -. q1) /. Float.abs (median l) | None -> 0.

(* ---- host and process probes ------------------------------------ *)

(* A fixed integer loop, timed; host speed drift shows as drift here. *)
let calib_ns () =
  let t0 = Trace.now_ns () in
  let x = ref 1 in
  for _ = 1 to 2_000_000 do
    x := ((!x * 0x5851f42d4c957f2d) + 0x14057b7ef767814f) land max_int
  done;
  ignore (Sys.opaque_identity !x);
  float_of_int (Trace.now_ns () - t0)

(* On a virtual machine that shares its processor with other tenants the
   vCPUs need not run at the same speed, and which one is slow can change
   from minute to minute: the same op can take twice
   as long on one as on the other. A run that stayed wherever the
   scheduler first put it would measure that placement, so the timed
   ops rotate over two of the allowed CPUs, moving every 100 ms, and
   each set-up probe runs once on each of the two. *)
external pin_cpu : int -> bool = "ba_bench_pin_cpu"
external allowed_cpus : unit -> int = "ba_bench_allowed_cpus"

let cpus =
  let mask = allowed_cpus () in
  match List.filter (fun i -> mask land (1 lsl i) <> 0) (List.init 62 Fun.id) with
  | a :: b :: _ -> [| a; b |]
  | l -> Array.of_list l

let current_cpu = ref 0
let last_move = ref 0

let rotate_cpu () =
  if Array.length cpus > 1 && Trace.now_ns () - !last_move > 100_000_000 then begin
    current_cpu := (!current_cpu + 1) mod Array.length cpus;
    ignore (pin_cpu cpus.(!current_cpu));
    last_move := Trace.now_ns ()
  end

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Run this executable with [args]; its standard output, or an error
   when it did not exit with 0. *)
let run_child args =
  let exe = Sys.executable_name in
  let args = args @ [ "--shard-flows"; string_of_int !W.shard_flows ] in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED 0 -> Ok out
  | Unix.WEXITED c -> Error (Printf.sprintf "%s exited with %d" (String.concat " " args) c)
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Error (Printf.sprintf "%s killed by signal %d" (String.concat " " args) s)

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> ""

(* ---- one run ------------------------------------------------------ *)

type budget = Seconds of float | Ops of int

type cfg = { workload : W.t; seed : int; budget : budget; setups : int; spans : string option }

type tally = { mutable attempted : int; mutable failed : int }

let check tally ~seed w (o : W.outcome) =
  tally.attempted <- tally.attempted + 1;
  if not (w.W.verify ~seed o) then begin
    tally.failed <- tally.failed + 1;
    Printf.printf "FAILED %s seed %d: %d delivered\n" w.W.name seed o.delivered
  end

(* The same seed must give the same result counters on every rerun. *)
let check_digest tally ~seed w ~expect digest =
  if digest <> expect then begin
    tally.failed <- tally.failed + 1;
    Printf.printf "FAILED %s seed %d: digest %d differs from %d on an earlier run\n" w.W.name seed
      digest expect
  end

(* The probe child: set up, run the warm-up op, report when it ended. *)
let setup_probe w ~seed =
  let o = w.W.op ~traced:false ~mem:false ~seed in
  let t_end = Trace.now_ns () in
  Printf.printf "%d %b %d\n" t_end (w.W.verify ~seed o) o.digest

(* Seconds from spawning a fresh process to the end of its warm-up op,
   on the fastest of the CPUs, and the op's digest. *)
let time_setup tally w ~seed =
  let once () =
    let t0 = Trace.now_ns () in
    match run_child [ "--setup-probe"; "--workload"; w.W.name; "--seed"; string_of_int seed ] with
    | Error e -> failwith e
    | Ok out -> (
        tally.attempted <- tally.attempted + 1;
        match String.split_on_char ' ' (String.trim (last_line out)) with
        | [ t_end; ok; digest ] ->
            if ok <> "true" then begin
              tally.failed <- tally.failed + 1;
              Printf.printf "FAILED %s seed %d: set-up probe op\n" w.W.name seed
            end;
            (float_of_int (int_of_string t_end - t0) *. 1e-9, int_of_string digest)
        | _ -> failwith ("unreadable set-up probe output: " ^ out))
  in
  if Array.length cpus < 2 then once ()
  else begin
    let runs = Array.map (fun c -> ignore (pin_cpu c); once ()) cpus in
    ignore (pin_cpu cpus.(!current_cpu));
    Array.fold_left min runs.(0) runs
  end

let keep_going budget ~t_start ~ops =
  match budget with
  | Ops n -> ops < n
  | Seconds s -> ops = 0 || float_of_int (Trace.now_ns () - t_start) *. 1e-9 < s

let half = function Ops n -> Ops n | Seconds s -> Seconds (s /. 2.)

(* Share [i] of [parts] equal shares of a budget. *)
let share budget ~parts i =
  match budget with
  | Seconds s -> Seconds (s /. float_of_int parts)
  | Ops n -> Ops ((n / parts) + if i < n mod parts then 1 else 0)

(* For workloads that ask for it, collect the last op's garbage before
   the next op; returns the major collections that took. *)
let clear_heap w =
  if not w.W.fresh_heap then 0
  else begin
    let m0 = (Gc.quick_stat ()).Gc.major_collections in
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.major_collections - m0
  end

type op_sample = { seed : int; wall_ns : int; cpu : float; o : W.outcome }

type phase = { samples : op_sample list; alloc : float; minor : int; major : int }

(* Untraced ops in a closed loop until the budget is spent. Allocation
   and collections are read once around the whole phase. In OCaml 5 the
   allocation counter only advances at a minor collection, so the minor
   heap is emptied at both ends; nothing but ops runs in between, and
   the checks run after the phase. *)
let phase w ~first_seed ~budget =
  Gc.minor ();
  let a0 = Gc.allocated_bytes () and q0 = Gc.quick_stat () in
  let forced = ref 0 in
  let t_start = Trace.now_ns () in
  let rec loop acc n =
    if not (keep_going budget ~t_start ~ops:n) then List.rev acc
    else
      let seed = first_seed + n in
      forced := !forced + clear_heap w;
      rotate_cpu ();
      let c0 = cpu_s () in
      let t0 = Trace.now_ns () in
      let o = w.W.op ~traced:false ~mem:false ~seed in
      let wall_ns = Trace.now_ns () - t0 in
      loop ({ seed; wall_ns; cpu = cpu_s () -. c0; o } :: acc) (n + 1)
  in
  let samples = loop [] 0 in
  let q1 = Gc.quick_stat () in
  Gc.minor ();
  {
    samples;
    alloc = Gc.allocated_bytes () -. a0;
    minor = q1.Gc.minor_collections - q0.Gc.minor_collections;
    major = q1.Gc.major_collections - q0.Gc.major_collections - !forced;
  }

let merge a b =
  {
    samples = a.samples @ b.samples;
    alloc = a.alloc +. b.alloc;
    minor = a.minor + b.minor;
    major = a.major + b.major;
  }

let op_ms p = List.map (fun s -> float_of_int s.wall_ns *. 1e-6) p.samples
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0. l
let sumi f l = List.fold_left (fun acc x -> acc + f x) 0 l
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* The untraced run: a warm-up op that also measures per-connection
   state, then ops until the budget is spent. The set-up probes are
   spread over the run, one before the warm-up op and one after each
   share of the timed ops, so one slow spell of the host cannot set
   their median. *)
let untraced cfg =
  let w = cfg.workload and tally = { attempted = 0; failed = 0 } in
  let probe () = time_setup tally w ~seed:cfg.seed in
  let first = probe () in
  let warm = w.W.op ~traced:false ~mem:true ~seed:cfg.seed in
  check tally ~seed:cfg.seed w warm;
  let parts = max 1 (cfg.setups - 1) in
  let rec go i acc probes =
    if i = parts then (acc, probes)
    else
      let p =
        phase w ~first_seed:(cfg.seed + 1 + List.length acc.samples)
          ~budget:(share cfg.budget ~parts i)
      in
      go (i + 1) (merge acc p) (if cfg.setups > 1 then probe () :: probes else probes)
  in
  let p, probes = go 0 { samples = []; alloc = 0.; minor = 0; major = 0 } [ first ] in
  List.iter
    (fun (_, digest) -> check_digest tally ~seed:cfg.seed w ~expect:warm.digest digest)
    probes;
  List.iter (fun s -> check tally ~seed:s.seed w s.o) p.samples;
  let delivered = float_of_int (sumi (fun s -> s.o.delivered) p.samples) in
  let wall_s = sumf (fun s -> float_of_int s.wall_ns *. 1e-9) p.samples in
  (* Quartiles, not medians or totals: the host's slow spells last for
     seconds and slow every op in them, and the fast quartile of a run's
     ops repeats from run to run where its median and mean do not. *)
  let rate s = float_of_int s.o.delivered /. (float_of_int s.wall_ns *. 1e-9) in
  let cpu_per_msg s = s.cpu *. 1e6 /. float_of_int (max 1 s.o.delivered) in
  let metrics =
    [
      ("setup_s", median (List.map fst probes));
      ("goodput_msgs_per_s", percentile (List.map rate p.samples) 0.75);
      ("cpu_us_per_msg", percentile (List.map cpu_per_msg p.samples) 0.25);
      ("heap_peak_mb", heap_peak_mb ());
      ("alloc_b_per_msg", p.alloc /. delivered);
      ("state_bytes_per_flow", warm.state_per_flow);
    ]
  in
  let walls_ms = op_ms p in
  Printf.printf "%s: %d ops in %.2f s; %.0f msgs/s overall; op_ms p50 %.4g p99 %.4g\n" w.W.name
    (List.length p.samples) wall_s (delivered /. wall_s) (median walls_ms)
    (percentile walls_ms 0.99);
  (tally, metrics)

(* The traced run: an untraced phase gives the counts, GC figures and
   the overhead baseline; then the same seeds run traced, for spans. *)
let traced cfg =
  let w = cfg.workload and tally = { attempted = 0; failed = 0 } in
  let is_net = w.W.name = W.udp_loopback.W.name in
  let warm = w.W.op ~traced:false ~mem:false ~seed:cfg.seed in
  check tally ~seed:cfg.seed w warm;
  let calib = List.init 3 (fun _ -> calib_ns ()) in
  W.latency_ms := Ba_util.Qsketch.create ();
  let p = phase w ~first_seed:(cfg.seed + 1) ~budget:(half cfg.budget) in
  List.iter (fun s -> check tally ~seed:s.seed w s.o) p.samples;
  let t_start = Trace.now_ns () in
  let rec traced_loop acc n = function
    | s :: rest when keep_going (half cfg.budget) ~t_start ~ops:n ->
        ignore (clear_heap w);
        rotate_cpu ();
        let o, wall, resid = Trace.run_op (fun () -> w.W.op ~traced:true ~mem:false ~seed:s.seed) in
        check tally ~seed:s.seed w o;
        check_digest tally ~seed:s.seed w ~expect:s.o.digest o.digest;
        traced_loop ((s, wall, resid, o) :: acc) (n + 1) rest
    | _ -> List.rev acc
  in
  let t = traced_loop [] 0 p.samples in
  let calib = calib @ List.init 3 (fun _ -> calib_ns ()) in
  let nt = float_of_int (List.length t) in
  let traced_wall = float_of_int (sumi (fun (_, wall, _, _) -> wall) t) in
  let resid = sumi (fun (_, _, r, _) -> r) t in
  let per_op x = float_of_int x /. nt and share x = float_of_int x /. traced_wall in
  let decode_ns = if is_net then W.decode_ns () else 0. in
  let decode_calls =
    if is_net then float_of_int (sumi (fun (_, _, _, o) -> o.W.rx_datagrams) t) /. nt else 0.
  in
  let decode_self = decode_ns *. decode_calls in
  let boundary b =
    let i = Trace.index b and n = Trace.name b in
    [
      (n ^ ".calls", per_op Trace.calls.(i));
      (n ^ ".incl_ns", per_op Trace.incl_ns.(i));
      (n ^ ".self_ns", per_op Trace.self_ns.(i));
      (n ^ ".self_share", share Trace.self_ns.(i));
    ]
  in
  (* Decoding runs inside the driver, outside every span; its replayed
     cost is moved out of the residual so the shares still sum to 1. *)
  let resid_per_op = (float_of_int resid /. nt) -. decode_self in
  let residual r =
    let v = if r = w.W.residual then resid_per_op else 0. in
    [ (r ^ ".self_ns", v); (r ^ ".self_share", v *. nt /. traced_wall) ]
  in
  let plain = p.samples in
  let np = float_of_int (List.length plain) in
  let tot f = float_of_int (sumi f plain) in
  let data = tot (fun s -> s.o.data_frames) and acks = tot (fun s -> s.o.ack_frames) in
  let delivered = tot (fun s -> s.o.delivered) in
  let lat q =
    let l = !W.latency_ms in
    if is_net && Ba_util.Qsketch.count l > 0 then Ba_util.Qsketch.quantile l q else 0.
  in
  let wall_of s = float_of_int s.wall_ns in
  let metrics =
    List.concat_map boundary Trace.boundaries
    @ [
        (decode_boundary ^ ".calls", decode_calls);
        (decode_boundary ^ ".incl_ns", decode_self);
        (decode_boundary ^ ".self_ns", decode_self);
        (decode_boundary ^ ".self_share", decode_self *. nt /. traced_wall);
      ]
    @ List.concat_map residual residual_names
    @ [
        ("gc.minor_collections", float_of_int p.minor /. np);
        ("gc.major_collections", float_of_int p.major /. np);
        ("gc.alloc_b_per_frame", p.alloc /. (data +. acks));
        ("core.sender.data_frames_per_msg", data /. delivered);
        ("core.sender.retx_per_msg", tot (fun s -> s.o.retx) /. delivered);
        ("core.receiver.acks_per_msg", acks /. delivered);
        ("channel.link.queue_drop_frac", tot (fun s -> s.o.queue_drops) /. data);
        ("net.driver.decode_errors", tot (fun s -> s.o.decode_errors) /. np);
        ("net.driver.send_errors", tot (fun s -> s.o.send_errors) /. np);
        ( "net.driver.wait_frac",
          if is_net then 1. -. (sumf (fun s -> s.cpu) plain *. 1e9 /. sumf wall_of plain) else 0. );
        ("net.msg_latency_ms_p50", lat 0.5);
        ("net.msg_latency_ms_p99", lat 0.99);
        ("op.ms_p50", median (op_ms p));
        ("op.ms_p99", percentile (op_ms p) 0.99);
        ( "trace.overhead_frac",
          (median (List.map (fun (_, wall, _, _) -> float_of_int wall) t)
           /. median (List.map (fun (s, _, _, _) -> wall_of s) t))
          -. 1. );
        ("host.calib_ns", median calib);
      ]
  in
  Printf.printf "%s: %d traced ops; self times + residual = %.6f of traced wall\n" w.W.name
    (List.length t)
    ((float_of_int (Array.fold_left ( + ) 0 Trace.self_ns) +. float_of_int resid) /. traced_wall);
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          Trace.write_spans oc ~workload:w.W.name))
    cfg.spans;
  (tally, metrics)

(* The result line BENCHMARK.json's command ends its output with. *)
let result_json (tally, metrics) ~units =
  let metric (name, v) =
    (name, Jsonv.Obj [ ("value", Jsonv.Num v); ("unit", Jsonv.Str (List.assoc name units)) ])
  in
  Jsonv.Obj
    [
      ("correct", Jsonv.Bool (tally.failed = 0));
      ("attempted", Jsonv.Num (float_of_int tally.attempted));
      ("failed", Jsonv.Num (float_of_int tally.failed));
      ("metrics", Jsonv.Obj (List.map metric metrics));
    ]

let run cfg ~trace =
  let r, units = if trace then (traced cfg, per_layer) else (untraced cfg, end_to_end) in
  List.iter
    (fun (name, v) -> Printf.printf "  %-40s %.6g %s\n" name v (List.assoc name units))
    (snd r);
  print_endline (Jsonv.to_string (result_json r ~units))
