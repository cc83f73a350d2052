module W = Ba_proto.Wire

(* Same multiply-xor fold as the frame checksums, over (index, payload)
   pairs: a per-byte rate is fine here because it runs once per
   delivery, not per retransmission. *)
let fnv_prime = 0x100000001b3
let digest_seed = 0x3bf29ce484222325

let digest_add d ~index ~payload =
  let h = ref ((d lxor index) * fnv_prime land max_int) in
  for i = 0 to String.length payload - 1 do
    h := (!h lxor Char.code (String.unsafe_get payload i)) * fnv_prime land max_int
  done;
  !h

let expected_digest ~wseed ~payload_size ~messages =
  let d = ref digest_seed in
  for i = 0 to messages - 1 do
    d :=
      digest_add !d ~index:i
        ~payload:(Ba_proto.Workload.payload ~seed:wseed ~size:payload_size i)
  done;
  !d

(* The frames a shim passes in one engine tick leave as one container
   datagram, sent from a zero-delay slot: the driver fires it in the
   [sync] that follows the socket drain or timer batch that produced
   the frames, so packing adds no latency. Returns the shim's
   [transmit]. *)
let packer engine ~send =
  let p = Codec.Packer.create ~send in
  let slot = Ba_sim.Engine.slot_create engine (fun () -> Codec.Packer.flush p) in
  fun src len ->
    Codec.Packer.add p src len;
    if not (Ba_sim.Engine.slot_armed engine slot) then
      Ba_sim.Engine.slot_arm engine slot ~delay:0

module Server = struct
  type t = {
    messages : int;
    next : int ref;
    dig : int ref;
    epoch : int ref;
    dups : int ref;
    misordered : int ref;
    corrupted : int ref;
    acks : int ref;
    handshakes : int ref;  (* POS frames sent *)
    stray : int ref;
    peer : Unix.sockaddr option ref;
    shim : Shim.t;
    feed : W.data -> unit;
  }

  let create ~engine ~protocol:(module P : Ba_proto.Protocol.S) ~config ~messages
      ~payload_size ~wseed ?restore ?on_deliver ?plan ?(impair_seed = 1) ~send () =
    let peer = ref None in
    let shim =
      Shim.create engine ?plan ~seed:impair_seed
        ~transmit:(fun buf len -> match !peer with Some a -> send a buf len | None -> ())
        ()
    in
    let buf = Bytes.create Codec.ack_len in
    let next = ref 0
    and dig = ref digest_seed
    and epoch = ref 0
    and dups = ref 0
    and misordered = ref 0
    and corrupted = ref 0
    and acks = ref 0
    and handshakes = ref 0 in
    let notify () =
      match on_deliver with
      | Some f -> f ~epoch:!epoch ~pos:!next ~digest:!dig
      | None -> ()
    in
    let deliver payload =
      let i = Ba_proto.Workload.index payload in
      if i < 0 || i >= messages then incr corrupted
      else if not (Ba_proto.Workload.matches ~seed:wseed ~size:payload_size i payload) then
        incr corrupted
      else if i < !next then incr dups
      else begin
        if i > !next then incr misordered;
        dig := digest_add !dig ~index:i ~payload;
        next := i + 1;
        notify ()
      end
    in
    let send_ack a =
      incr acks;
      let len = Codec.encode buf (Codec.Ack a) in
      Shim.send shim buf len
    in
    (* Block acknowledgments emitted during one socket drain leave as one
       datagram: an adjacent same-epoch ack widens the held range
       ([W.ack_extends], capped at the window), anything else flushes it
       and is then handled in order. A zero-delay slot sends the held
       range; the driver fires it in the [sync] that follows the drain,
       after the deliveries (and their persists) it acknowledges.
       Single-number acknowledgments pass through untouched. *)
    let merge = P.ack_wire_bytes = W.ack_bytes_block in
    let cap = config.Ba_proto.Proto_config.window
    and wire_modulus = config.Ba_proto.Proto_config.wire_modulus in
    let held = ref false and h_lo = ref 0 and h_hi = ref 0 and h_epoch = ref 0 in
    let out = { W.lo = 0; hi = 0; epoch = 0; akind = W.Ack; check = 0 } in
    let flush () =
      if !held then begin
        held := false;
        out.W.lo <- !h_lo;
        out.W.hi <- !h_hi;
        out.W.epoch <- !h_epoch;
        out.W.check <- W.ack_checksum ~lo:!h_lo ~hi:!h_hi ~epoch:!h_epoch ~akind:W.Ack;
        send_ack out
      end
    in
    let flush_slot = Ba_sim.Engine.slot_create engine flush in
    (* The receiver hands each ack over, as it hands one to a simulated
       link: once encoded or merged into the held range, it goes back to
       the frame pool. [out] is the server's own and never does. *)
    let tx (a : W.ack) =
      if a.W.epoch > !epoch then epoch := a.W.epoch;
      if a.W.akind = W.Sync_pos then incr handshakes;
      (if not merge then send_ack a
       else if
         !held && W.ack_extends ~wire_modulus ~cap ~lo:!h_lo ~hi:!h_hi ~epoch:!h_epoch a
       then h_hi := a.W.hi
       else begin
         flush ();
         match a.W.akind with
         | W.Sync_pos -> send_ack a
         | W.Ack ->
             held := true;
             h_lo := a.W.lo;
             h_hi := a.W.hi;
             h_epoch := a.W.epoch;
             if not (Ba_sim.Engine.slot_armed engine flush_slot) then
               Ba_sim.Engine.slot_arm engine flush_slot ~delay:0
       end);
      W.release_ack a
    in
    let r = P.create_receiver engine config ~tx ~deliver in
    (match (restore, P.lifecycle) with
    | None, _ -> ()
    | Some _, None -> invalid_arg (P.name ^ ": no crash lifecycle to restore from")
    | Some (e, pos, d), Some l ->
        l.receiver_restore r ~epoch:e ~pos;
        if e > !epoch then epoch := e;
        next := pos;
        dig := d);
    {
      messages;
      next;
      dig;
      epoch;
      dups;
      misordered;
      corrupted;
      acks;
      handshakes;
      stray = ref 0;
      peer;
      shim;
      feed = (fun d -> P.receiver_on_data r d);
    }

  let on_frame t frame from =
    (* Learn (or re-learn) the peer from any arrival: a stale-epoch frame
       the protocol will reject still tells a restarted process where
       the client lives, which is what lets its POS out the door. *)
    t.peer := Some from;
    match frame with
    | Codec.Data d -> t.feed d
    | Codec.Ack _ | Codec.Batch _ -> incr t.stray

  let peer t = !(t.peer)
  let complete t = !(t.next) >= t.messages
  let position t = !(t.next)
  let epoch t = !(t.epoch)
  let digest t = !(t.dig)
  let duplicates t = !(t.dups)
  let misordered t = !(t.misordered)
  let corrupted t = !(t.corrupted)
  let acks_sent t = !(t.acks)
  let stray_frames t = !(t.stray)
  let resync_rounds t = !(t.handshakes)
  let shim_stats t = Shim.stats t.shim
end

(* The pull times of the messages the sender has not had acknowledged,
   at [index mod capacity]. The ring starts empty and doubles just
   before a pull would land on an entry at or above the acknowledged
   prefix, so it holds about a window; an entry below the prefix is
   delivered, its latency sample taken, and free to overwrite. *)
module Pull_log = struct
  type t = { mutable index : int array; mutable wall : float array }

  let create () = { index = [||]; wall = [||] }

  (* Record that [i] was pulled at [wall]. Pulls come in index order, so
     the entries still needed are [acked, i): one slot each, plus [i]'s. *)
  let add t ~acked i wall =
    let old = Array.length t.index in
    if i - acked >= old then begin
      let cap = ref (max 1 (2 * old)) in
      while !cap <= i - acked do
        cap := 2 * !cap
      done;
      let index = Array.make !cap (-1) and walls = Array.make !cap (-1.) in
      for k = 0 to old - 1 do
        let j = t.index.(k) in
        if j >= acked then begin
          index.(j mod !cap) <- j;
          walls.(j mod !cap) <- t.wall.(k)
        end
      done;
      t.index <- index;
      t.wall <- walls
    end;
    let k = i mod Array.length t.index in
    t.index.(k) <- i;
    t.wall.(k) <- wall

  let find t i =
    let cap = Array.length t.index in
    if i >= 0 && cap > 0 && t.index.(i mod cap) = i then t.wall.(i mod cap) else -1.
end

module Client = struct
  type t = {
    pulled : int ref;
    pulls : Pull_log.t;
    watermark : int ref;
    wd_resyncs : int ref;
    dog : Ba_proto.Watchdog.t;
    shim : Shim.t;
    feed : W.ack -> unit;
    pump_ : unit -> unit;
    done_ : unit -> bool;
    retx_ : unit -> int;
    outstanding_ : unit -> int;
    data_frames : int ref;
    handshakes : int ref;  (* REQ and FIN frames sent *)
    stray : int ref;
  }

  let create ~engine ~protocol:(module P : Ba_proto.Protocol.S) ~config ~messages
      ~payload_size ~wseed ?(watchdog = Ba_proto.Watchdog.default_config) ?plan
      ?(impair_seed = 1) ~send () =
    let shim =
      Shim.create engine ?plan ~seed:impair_seed ~transmit:(packer engine ~send) ()
    in
    (* One data frame; a larger payload grows it. *)
    let buf = ref (Bytes.create (Codec.data_header_len + payload_size)) in
    let pulled = ref 0
    and data_frames = ref 0
    and handshakes = ref 0 in
    let pulls = Pull_log.create () in
    let sender = ref None in
    let supply = Ba_proto.Workload.supplier ~seed:wseed ~size:payload_size ~count:messages in
    let next_payload () =
      match supply () with
      | None -> None
      | Some p as fresh ->
          let i = Ba_proto.Workload.index p in
          (if i >= 0 && i < messages then
             (* Everything pulled but not outstanding is acknowledged. *)
             let outstanding = match !sender with Some s -> P.sender_outstanding s | None -> 0 in
             Pull_log.add pulls ~acked:(!pulled - outstanding) i (Unix.gettimeofday ()));
          incr pulled;
          fresh
    in
    let s =
      P.create_sender engine config
        ~tx:(fun d ->
          incr data_frames;
          (match d.W.dkind with W.Msg -> () | W.Sync_req | W.Sync_fin -> incr handshakes);
          let n = Codec.data_header_len + String.length d.W.payload in
          if Bytes.length !buf < n then buf := Bytes.create n;
          let len = Codec.encode !buf (Codec.Data d) in
          (* Encoded, the frame goes back to the pool, as a simulated
             link returns it on delivery. *)
          W.release_data d;
          Shim.send shim !buf len)
        ~next_payload
    in
    sender := Some s;
    let dog = Ba_proto.Watchdog.create watchdog in
    let watermark = ref 0
    and wd_resyncs = ref 0 in
    (* A protocol without a crash lifecycle has no resync lever: the
       watchdog's verdict is counted and otherwise ignored, as in the
       simulated fabric. *)
    let resync () =
      incr wd_resyncs;
      match P.lifecycle with
      | None -> ()
      | Some l ->
          l.sender_crash s;
          l.sender_restart s
    in
    (* The watchdog's clock is a self-re-arming engine slot, so under a
       wall-clock driver "no progress for N checks" means N real check
       intervals of silence — peer-death detection by timeout. *)
    let slot_ref = ref None in
    let check () =
      let acked = !pulled - P.sender_outstanding s in
      if acked > !watermark then watermark := acked;
      (match
         Ba_proto.Watchdog.observe dog ~delivered:!watermark ~completed:(P.sender_done s)
       with
      | Ba_proto.Watchdog.Nothing -> ()
      | Ba_proto.Watchdog.Resync -> resync ()
      | Ba_proto.Watchdog.Quarantine -> Shim.gate shim true
      | Ba_proto.Watchdog.Release ->
          Shim.gate shim false;
          resync ());
      match !slot_ref with
      | Some slot ->
          Ba_sim.Engine.slot_arm engine slot ~delay:watchdog.Ba_proto.Watchdog.check_interval
      | None -> ()
    in
    let slot = Ba_sim.Engine.slot_create engine check in
    slot_ref := Some slot;
    Ba_sim.Engine.slot_arm engine slot ~delay:watchdog.Ba_proto.Watchdog.check_interval;
    {
      pulled;
      pulls;
      watermark;
      wd_resyncs;
      dog;
      shim;
      feed = (fun a -> P.sender_on_ack s a);
      pump_ = (fun () -> P.sender_pump s);
      done_ = (fun () -> P.sender_done s);
      retx_ = (fun () -> P.sender_retransmissions s);
      outstanding_ = (fun () -> P.sender_outstanding s);
      data_frames;
      handshakes;
      stray = ref 0;
    }

  let on_frame t = function
    | Codec.Ack a -> t.feed a
    | Codec.Data _ | Codec.Batch _ -> incr t.stray

  let pump t = t.pump_ ()
  let finished t = t.done_ ()
  let pulled t = !(t.pulled)

  let acked t =
    let live = !(t.pulled) - t.outstanding_ () in
    if live > !(t.watermark) then t.watermark := live;
    !(t.watermark)
  let pull_wall t i = Pull_log.find t.pulls i
  let data_frames t = !(t.data_frames)
  let stray_frames t = !(t.stray)
  let retransmissions t = t.retx_ ()
  let resync_rounds t = !(t.handshakes)
  let watchdog_resyncs t = !(t.wd_resyncs)
  let quarantines t = Ba_proto.Watchdog.quarantine_events t.dog
  let watchdog_state t = Ba_proto.Watchdog.state t.dog
  let gated t = Shim.gated t.shim
  let shim_stats t = Shim.stats t.shim
end

module Pair = struct
  type outcome = {
    completed : bool;
    delivered : int;
    duplicates : int;
    misordered : int;
    corrupted : int;
    digest : int;
    digest_expected : int;
    retransmissions : int;
    resync_rounds : int;
    watchdog_resyncs : int;
    wall_s : float;
    msgs_per_s : float;
    frames_tx : int;
    data_datagrams : int;
    ack_datagrams : int;
    frames_rx : int;
    decode_errors : int;
    send_errors : int;
    latency_ms : Ba_util.Qsketch.t;
    client_shim : Shim.stats;
    server_shim : Shim.stats;
  }

  let loopback_sock () =
    let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
    Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
    s

  let run ~protocol ~config ~messages ~payload_size ~wseed ?plan ?(impair_seed = 1)
      ?(tick_us = 200) ?(deadline_s = 60.) ?(on_setup = ignore) () =
    let s_sock = loopback_sock () and c_sock = loopback_sock () in
    Fun.protect
      ~finally:(fun () ->
        Unix.close s_sock;
        Unix.close c_sock)
      (fun () ->
        let s_addr = Unix.getsockname s_sock in
        let s_engine = Ba_sim.Engine.create ~seed:impair_seed ()
        and c_engine = Ba_sim.Engine.create ~seed:(impair_seed + 1) () in
        let srv = ref None and cli = ref None in
        let s_drv =
          Driver.create ~engine:s_engine ~sock:s_sock ~tick_us
            ~on_frame:(fun f from ->
              match !srv with Some s -> Server.on_frame s f from | None -> ())
            ()
        in
        let c_drv =
          Driver.create ~engine:c_engine ~sock:c_sock ~tick_us
            ~on_frame:(fun f _ ->
              match !cli with Some c -> Client.on_frame c f | None -> ())
            ()
        in
        let latency_ms = Ba_util.Qsketch.create () in
        let s' =
          Server.create ~engine:s_engine ~protocol ~config ~messages ~payload_size
            ~wseed ?plan ~impair_seed:(impair_seed * 2 + 1)
            ~on_deliver:(fun ~epoch:_ ~pos ~digest:_ ->
              match !cli with
              | Some c ->
                  let t0 = Client.pull_wall c (pos - 1) in
                  if t0 > 0. then
                    Ba_util.Qsketch.add latency_ms ((Unix.gettimeofday () -. t0) *. 1e3)
              | None -> ())
            ~send:(fun addr buf len -> ignore (Driver.send_to s_drv addr buf len))
            ()
        in
        let c' =
          Client.create ~engine:c_engine ~protocol ~config ~messages ~payload_size
            ~wseed ?plan ~impair_seed:(impair_seed * 2 + 2)
            ~send:(fun buf len -> ignore (Driver.send_to c_drv s_addr buf len))
            ()
        in
        srv := Some s';
        cli := Some c';
        on_setup ();
        let t0 = Unix.gettimeofday () in
        Client.pump c';
        let completed =
          Driver.run ~deadline_s
            ~stop:(fun () -> Server.complete s' && Client.finished c')
            [ s_drv; c_drv ]
        in
        let wall_s = Unix.gettimeofday () -. t0 in
        {
          completed;
          delivered = Server.position s';
          duplicates = Server.duplicates s';
          misordered = Server.misordered s';
          corrupted = Server.corrupted s';
          digest = Server.digest s';
          digest_expected = expected_digest ~wseed ~payload_size ~messages;
          retransmissions = Client.retransmissions c';
          resync_rounds = Client.resync_rounds c' + Server.resync_rounds s';
          watchdog_resyncs = Client.watchdog_resyncs c';
          wall_s;
          msgs_per_s =
            (if wall_s <= 0. then 0. else float_of_int (Server.position s') /. wall_s);
          frames_tx = Driver.tx_datagrams s_drv + Driver.tx_datagrams c_drv;
          data_datagrams = Driver.tx_datagrams c_drv;
          ack_datagrams = Server.acks_sent s';
          frames_rx = Driver.rx_datagrams s_drv + Driver.rx_datagrams c_drv;
          decode_errors = Driver.decode_errors s_drv + Driver.decode_errors c_drv;
          send_errors = Driver.send_errors s_drv + Driver.send_errors c_drv;
          latency_ms;
          client_shim = Client.shim_stats c';
          server_shim = Server.shim_stats s';
        })
end
