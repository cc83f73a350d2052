(* The benchmark's workloads. Each op is one closed-loop transfer: the
   next op starts only after this one has returned and been checked.
   Every op is a pure function of its seed except [udp-loopback], whose
   timing (and so its retransmission count) is the host's. *)

module R = Ba_registry.Registry
module Dist = Ba_channel.Dist

type outcome = {
  ok : bool;  (** complete; no duplicate, misordered or corrupted delivery *)
  delivered : int;  (** in-order distinct deliveries *)
  digest : int;  (** hash of the op's result counters, compared across reruns of a seed *)
  data_frames : int;
  ack_frames : int;
  retx : int;
  queue_drops : int;
  decode_errors : int;
  send_errors : int;
  rx_datagrams : int;
  state_per_flow : float;  (** live bytes per connection, when asked to measure *)
}

type t = {
  name : string;
  ops : int;  (** ops per round in the fixed-count mode *)
  residual : string;  (** name of the driver's residual span *)
  fresh_heap : bool;
      (** collect the previous op's garbage before each op, untimed, so
          each op runs on a heap like a fresh run's *)
  op : traced:bool -> mem:bool -> seed:int -> outcome;
  verify : seed:int -> outcome -> bool;
      (** the checks too costly for the timed op; run after it *)
}

let entry name =
  match R.find name with Some e -> e | None -> failwith ("unknown protocol " ^ name)

let blockack = entry "blockack-multi"

module Sim_callbacks = struct
  let data_tx = Trace.Link_send_data
  let ack_tx = Trace.Link_send_ack
  let deliver = Trace.Flow_deliver
end

module Shard_callbacks = struct
  include Sim_callbacks

  let deliver = Trace.Shard_deliver
end

module Net_callbacks = struct
  let data_tx = Trace.Net_tx
  let ack_tx = Trace.Net_tx
  let deliver = Trace.Net_deliver
end

let with_trace callbacks traced p = if traced then Trace.timed callbacks p else p

(* Live heap bytes retained between two full collections. *)
let live_bytes () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)

let zero =
  {
    ok = false;
    delivered = 0;
    digest = 0;
    data_frames = 0;
    ack_frames = 0;
    retx = 0;
    queue_drops = 0;
    decode_errors = 0;
    send_errors = 0;
    rx_datagrams = 0;
    state_per_flow = 0.;
  }

let no_extra_checks ~seed:_ (o : outcome) = o.ok

(* ---- xfer-lossy: the paper's channel on one connection -------------- *)

let xfer_messages = 1000

let xfer_run ?(protocol = blockack.R.protocol)
    ?(config =
      R.config ~window:16 ~rto:300 ~modulus:32 ~ack_coalesce:30 ~max_transit:60 blockack ())
    ~traced ~mem ~seed () =
  let protocol = with_trace (module Sim_callbacks) traced protocol in
  let live0 = if mem then live_bytes () else 0 in
  let state = ref 0 in
  let on_setup _ = if mem then state := live_bytes () - live0 in
  let r =
    Ba_proto.Harness.run protocol ~seed ~messages:xfer_messages ~payload_size:32 ~config
      ~data_loss:0.05 ~ack_loss:0.05 ~data_delay:(Dist.Uniform (40, 60))
      ~ack_delay:(Dist.Uniform (40, 60)) ~on_setup ()
  in
  {
    zero with
    ok = Ba_proto.Harness.correct r && r.delivered = xfer_messages;
    delivered = r.delivered;
    digest = Hashtbl.hash (r.ticks, r.data_sent, r.data_dropped, r.acks_sent, r.retransmissions);
    data_frames = r.data_sent;
    ack_frames = r.acks_sent;
    retx = r.retransmissions;
    queue_drops = r.data_queue_dropped;
    state_per_flow = float_of_int !state;
  }

let xfer_lossy =
  {
    name = "xfer-lossy";
    ops = 2000;
    residual = "proto.harness.residual";
    fresh_heap = false;
    op = (fun ~traced ~mem ~seed -> xfer_run ~traced ~mem ~seed ());
    verify = no_extra_checks;
  }

(* The negative control: bounded go-back-N with modulus [w + 1] on the
   same jittered channel misdelivers. The smoke test asserts that the
   checks above catch it. *)
let unsafe_control ~seed =
  let gbn = entry "go-back-n" in
  xfer_run ~protocol:gbn.R.protocol
    ~config:(R.config ~window:16 ~rto:300 ~modulus:17 gbn ())
    ~traced:false ~mem:false ~seed ()

(* ---- fabric-contended: 16 flows through one bottleneck queue -------- *)

let fabric_flows = 16
let fabric_messages = 50

let fabric_op ~traced ~mem ~seed =
  let protocol = with_trace (module Sim_callbacks) traced blockack.R.protocol in
  let config = R.config ~window:16 ~rto:400 blockack () in
  let specs =
    List.init fabric_flows (fun _ ->
        Ba_proto.Fabric.spec ~config ~messages:fabric_messages ~payload_size:512 protocol)
  in
  let live0 = if mem then live_bytes () else 0 in
  let state = ref 0 in
  let on_flows _ _ = if mem then state := live_bytes () - live0 in
  let r = Ba_proto.Fabric.run ~seed ~data_bottleneck:(2, 128) ~on_flows specs in
  let sum f = List.fold_left (fun acc fl -> acc + f fl) 0 r.flows in
  let delivered = sum (fun fl -> fl.Ba_proto.Flow.delivered) in
  let retx = sum (fun fl -> fl.Ba_proto.Flow.retransmissions) in
  let ds = r.data_stats and acks = r.ack_stats in
  {
    zero with
    ok =
      r.completed
      && List.for_all Ba_proto.Harness.correct r.flows
      && delivered = fabric_flows * fabric_messages;
    delivered;
    digest = Hashtbl.hash (r.ticks, ds.sent, ds.queue_dropped, acks.sent, retx);
    data_frames = ds.sent;
    ack_frames = acks.sent;
    retx;
    queue_drops = ds.queue_dropped;
    state_per_flow = float_of_int !state /. float_of_int fabric_flows;
  }

let fabric_contended =
  {
    name = "fabric-contended";
    ops = 400;
    residual = "proto.fabric.residual";
    fresh_heap = false;
    op = fabric_op;
    verify = no_extra_checks;
  }

(* ---- shard-100k: connection set-up at scale ------------------------- *)

(* Only the smoke test lowers this, to stay quick. *)
let shard_flows = ref 100_000
let shard_messages = 2

let shard_op ~traced ~mem ~seed =
  let protocol = with_trace (module Shard_callbacks) traced blockack.R.protocol in
  let config = R.config ~window:8 ~rto:400 blockack () in
  let specs =
    List.init !shard_flows (fun _ ->
        Ba_proto.Fabric.spec ~config ~messages:shard_messages protocol)
  in
  let r = Ba_proto.Shard.run ~seed ~jobs:1 ~measure_mem:mem specs in
  {
    zero with
    ok =
      r.completed && r.duplicates = 0 && r.misordered = 0 && r.corrupted = 0
      && r.delivered = !shard_flows * shard_messages;
    delivered = r.delivered;
    digest = Hashtbl.hash (Ba_proto.Shard.summary r);
    data_frames = r.data_sent;
    ack_frames = r.acks_sent;
    retx = r.retransmissions;
    queue_drops = r.lease_drops;
    state_per_flow = float_of_int r.state_bytes /. float_of_int r.flows;
  }

let shard_100k =
  {
    name = "shard-100k";
    ops = 3;
    residual = "proto.shard.residual";
    (* Without this the heap of one op's 100k flows is still garbage
       when the next op builds its own, and the process peaks near
       2.5 GB instead of near 0.5 GB. *)
    fresh_heap = true;
    op = shard_op;
    verify = no_extra_checks;
  }

(* ---- udp-loopback: codec, shim and syscalls over real sockets ------- *)

module Net = Ba_transport
module Endpoint = Ba_transport.Endpoint

let udp_messages = 20_000
let udp_payload = 16
let udp_tick_us = 200
let udp_entry = entry "blockack"

(* Wall milliseconds from the client pulling a message to the server
   delivering it, for every untraced UDP op since this was last
   replaced. *)
let latency_ms = ref (Ba_util.Qsketch.create ())

(* Datagrams copied off the wire during traced ops, for [decode_ns]. *)
let capture_cap = 4096
let captured = ref []
let captured_len = ref 0

let capture buf len =
  if !captured_len < capture_cap then begin
    captured := Bytes.sub buf 0 len :: !captured;
    incr captured_len
  end

let loopback_sock () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  s

(* Wired like [Endpoint.Pair.run], with each callback it hands the
   drivers and endpoints open to tracing. *)
let udp_op ~traced ~mem ~seed =
  let protocol = with_trace (module Net_callbacks) traced udp_entry.R.protocol in
  let config = R.config ~window:16 ~rto:250 udp_entry () in
  let live0 = if mem then live_bytes () else 0 in
  let s_sock = loopback_sock () and c_sock = loopback_sock () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close s_sock;
      Unix.close c_sock)
    (fun () ->
      let s_addr = Unix.getsockname s_sock in
      let s_engine = Ba_sim.Engine.create ~seed ()
      and c_engine = Ba_sim.Engine.create ~seed:(seed + 1) () in
      let srv = ref None and cli = ref None in
      let s_frame f from =
        match !srv with Some s -> Endpoint.Server.on_frame s f from | None -> ()
      and c_frame f _ = match !cli with Some c -> Endpoint.Client.on_frame c f | None -> () in
      let s_frame, c_frame =
        if traced then
          ( (fun f from -> Trace.span2 Trace.Net_on_frame s_frame f from),
            fun f from -> Trace.span2 Trace.Net_on_frame c_frame f from )
        else (s_frame, c_frame)
      in
      let driver engine sock on_frame =
        Net.Driver.create ~engine ~sock ~tick_us:udp_tick_us ~on_frame ()
      in
      let s_drv = driver s_engine s_sock s_frame and c_drv = driver c_engine c_sock c_frame in
      let send drv addr buf len = ignore (Net.Driver.send_to drv addr buf len) in
      let send =
        if traced then (fun drv addr buf len ->
          capture buf len;
          Trace.span3 Trace.Net_send_to (send drv) addr buf len)
        else send
      in
      let lat = !latency_ms in
      let server =
        Endpoint.Server.create ~engine:s_engine ~protocol ~config ~messages:udp_messages
          ~payload_size:udp_payload ~wseed:seed ~impair_seed:((seed * 2) + 1)
          ~on_deliver:(fun ~epoch:_ ~pos ~digest:_ ->
            match !cli with
            | Some c ->
                let t0 = Endpoint.Client.pull_wall c (pos - 1) in
                if t0 > 0. && not traced then
                  Ba_util.Qsketch.add lat ((Unix.gettimeofday () -. t0) *. 1e3)
            | None -> ())
          ~send:(send s_drv) ()
      in
      let client =
        Endpoint.Client.create ~engine:c_engine ~protocol ~config ~messages:udp_messages
          ~payload_size:udp_payload ~wseed:seed ~impair_seed:((seed * 2) + 2)
          ~send:(send c_drv s_addr) ()
      in
      srv := Some server;
      cli := Some client;
      let state = if mem then live_bytes () - live0 else 0 in
      Endpoint.Client.pump client;
      let completed =
        Net.Driver.run ~deadline_s:30.
          ~stop:(fun () -> Endpoint.Server.complete server && Endpoint.Client.finished client)
          [ s_drv; c_drv ]
      in
      let module S = Endpoint.Server in
      {
        ok =
          completed
          && S.position server = udp_messages
          && S.duplicates server = 0
          && S.misordered server = 0
          && S.corrupted server = 0;
        delivered = S.position server;
        digest = S.digest server;
        data_frames = Endpoint.Client.data_frames client;
        ack_frames = S.acks_sent server;
        retx = Endpoint.Client.retransmissions client;
        queue_drops = 0;
        decode_errors = Net.Driver.decode_errors s_drv + Net.Driver.decode_errors c_drv;
        send_errors = Net.Driver.send_errors s_drv + Net.Driver.send_errors c_drv;
        rx_datagrams = Net.Driver.rx_datagrams s_drv + Net.Driver.rx_datagrams c_drv;
        state_per_flow = float_of_int state;
      })

(* Nanoseconds per [Codec.decode], replaying the captured datagrams
   until at least 50 ms have been timed; 0 when nothing was captured. *)
let decode_ns () =
  match !captured with
  | [] -> 0.
  | frames ->
      let frames = Array.of_list frames in
      let t0 = Trace.now_ns () in
      let decoded = ref 0 in
      while Trace.now_ns () - t0 < 50_000_000 do
        Array.iter
          (fun b ->
            match Net.Codec.decode b ~len:(Bytes.length b) with
            | Ok _ -> incr decoded
            | Error e -> failwith ("captured datagram does not decode: " ^ e))
          frames
      done;
      float_of_int (Trace.now_ns () - t0) /. float_of_int !decoded

let udp_loopback =
  {
    name = "udp-loopback";
    ops = 25;
    residual = "net.driver.residual";
    fresh_heap = false;
    op = udp_op;
    verify =
      (fun ~seed o ->
        o.ok
        && o.digest
           = Endpoint.expected_digest ~wseed:seed ~payload_size:udp_payload
               ~messages:udp_messages);
  }

let all = [ xfer_lossy; fabric_contended; shard_100k; udp_loopback ]
let find name = List.find_opt (fun w -> String.equal w.name name) all
