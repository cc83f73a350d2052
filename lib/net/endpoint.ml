module W = Ba_proto.Wire
module Counters = Ba_util.Counters

(* Same multiply-xor fold as the frame checksums, over (index, payload)
   pairs: a per-byte rate is fine here because it runs once per
   delivery, not per retransmission. *)
let fnv_prime = 0x100000001b3
let digest_seed = 0x3bf29ce484222325

(* The digest of [index] and the first [len] bytes of [b]. *)
let digest_sub d ~index b len =
  let h = ref ((d lxor index) * fnv_prime land max_int) in
  for i = 0 to len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get b i)) * fnv_prime land max_int
  done;
  !h

let digest_add d ~index ~payload =
  digest_sub d ~index (Bytes.unsafe_of_string payload) (String.length payload)

(* Every payload is written into one buffer, long enough for the
   longest, so the expectation allocates nothing per message. *)
let expected_digest ~wseed ~payload_size ~messages =
  let buf = Bytes.create (max payload_size (3 + String.length (string_of_int messages))) in
  let d = ref digest_seed in
  for i = 0 to messages - 1 do
    let len = Ba_proto.Workload.write_payload ~seed:wseed ~size:payload_size i buf in
    d := digest_sub !d ~index:i buf len
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

(* A peer address no arrival carries: the server's until it first hears
   from one. *)
let no_peer = Unix.ADDR_UNIX ""

module Server = struct
  type rx = Rx : (module Ba_proto.Protocol.S with type receiver = 'r) * 'r -> rx

  type t = {
    messages : int;
    payload_size : int;
    wseed : int;
    on_deliver : (epoch:int -> pos:int -> digest:int -> unit) option;
    shim : Shim.t;
    hold : Ba_proto.Ack_hold.t option;  (* [None]: single-number acks pass through *)
    rx : rx;
    mutable peer : Unix.sockaddr;
    mutable next : int;
    mutable dig : int;
    mutable epoch : int;
    mutable dups : int;
    mutable misordered : int;
    mutable corrupted : int;
    mutable handshakes : int;  (* POS frames sent *)
  }

  let deliver t payload =
    let i = Ba_proto.Workload.index payload in
    if i < 0 || i >= t.messages then t.corrupted <- t.corrupted + 1
    else if not (Ba_proto.Workload.matches ~seed:t.wseed ~size:t.payload_size i payload) then
      t.corrupted <- t.corrupted + 1
    else if i < t.next then t.dups <- t.dups + 1
    else begin
      if i > t.next then t.misordered <- t.misordered + 1;
      t.dig <- digest_add t.dig ~index:i ~payload;
      t.next <- i + 1;
      match t.on_deliver with Some f -> f ~epoch:t.epoch ~pos:t.next ~digest:t.dig | None -> ()
    end

  (* The receiver hands each ack over, as it hands one to a simulated
     link: once encoded or merged into the held range, it goes back to
     the frame pool. *)
  let tx t ~send_ack (a : W.ack) =
    if a.W.epoch > t.epoch then t.epoch <- a.W.epoch;
    if a.W.akind = W.Sync_pos then t.handshakes <- t.handshakes + 1;
    (match t.hold with Some h -> Ba_proto.Ack_hold.offer h a | None -> send_ack a);
    W.release_ack a

  let create ~engine ~protocol:(module P : Ba_proto.Protocol.S) ~config ~messages
      ~payload_size ~wseed ?restore ?on_deliver ?plan ?(impair_seed = 1) ~send () =
    (* The shim's transmit and the protocol's callbacks reach the record
       they are built into through [self ()]. *)
    let rec knot =
      lazy
        (let self () = Lazy.force knot in
         let shim =
           Shim.create engine ?plan ~seed:impair_seed
             ~transmit:(fun buf len ->
               let t = self () in
               if t.peer != no_peer then send t.peer buf len)
             ()
         in
         let buf = Bytes.create Codec.ack_len in
         let send_ack a = Shim.send shim buf (Codec.encode_ack buf a) in
         (* The block acknowledgments emitted during one socket drain
            leave as one datagram: the hold flushes from a zero-delay
            slot, which the driver fires in the [sync] that follows the
            drain, after the deliveries (and their persists) it
            acknowledges. *)
         let hold =
           if P.ack_wire_bytes <> W.ack_bytes_block then None
           else
             Some
               (Ba_proto.Ack_hold.create engine
                  ~wire_modulus:config.Ba_proto.Proto_config.wire_modulus
                  ~cap:config.Ba_proto.Proto_config.window ~delay:0 ~emit:send_ack)
         in
         let r =
           P.create_receiver engine config
             ~tx:(fun a -> tx (self ()) ~send_ack a)
             ~deliver:(fun p -> deliver (self ()) p)
         in
         {
           messages;
           payload_size;
           wseed;
           on_deliver;
           shim;
           hold;
           rx = Rx ((module P), r);
           peer = no_peer;
           next = 0;
           dig = digest_seed;
           epoch = 0;
           dups = 0;
           misordered = 0;
           corrupted = 0;
           handshakes = 0;
         })
    in
    let t = Lazy.force knot in
    (* After the knot: restoring sends a POS, through [self ()]. *)
    (match (restore, t.rx) with
    | None, _ -> ()
    | Some (e, pos, d), Rx ((module P), r) -> (
        match P.lifecycle with
        | None -> invalid_arg (P.name ^ ": no crash lifecycle to restore from")
        | Some l ->
            l.receiver_restore r ~epoch:e ~pos;
            if e > t.epoch then t.epoch <- e;
            t.next <- pos;
            t.dig <- d));
    t

  let on_frame t frame from =
    (* Learn (or re-learn) the peer from any arrival: a stale-epoch frame
       the protocol will reject still tells a restarted process where
       the client lives, which is what lets its POS out the door. *)
    t.peer <- from;
    match (frame, t.rx) with
    | Codec.Data d, Rx ((module P), r) -> P.receiver_on_data r d
    | (Codec.Ack _ | Codec.Batch _), _ -> ()

  let complete t = t.next >= t.messages
  let position t = t.next
  let epoch t = t.epoch
  let digest t = t.dig
  let duplicates t = t.dups
  let misordered t = t.misordered
  let corrupted t = t.corrupted
  let shim_counters t = Shim.counters t.shim
  let acks_sent t = Counters.get (shim_counters t) Offered
  let resync_rounds t = t.handshakes
end

module Client = struct
  type tx = Tx : (module Ba_proto.Protocol.S with type sender = 's) * 's -> tx

  type t = {
    engine : Ba_sim.Engine.t;
    messages : int;
    check_interval : int;
    dog : Ba_proto.Watchdog.t;
    dog_slot : Ba_sim.Engine.slot;
    shim : Shim.t;
    clock : unit -> int;  (* [Driver.wall_us], or the engine's tick on a virtual network *)
    pulls : int Ba_util.Ring_buffer.t;
        (* pull time by index on [clock] (an int is stored unboxed), for
           the indices the sender has not had acknowledged: a pull's
           slot is free once its index is below the acknowledged
           prefix, the store's [lo] *)
    tx : tx;
    mutable buf : Bytes.t;  (* one encoded data frame; a larger payload grows it *)
    mutable pulled : int;
    mutable watermark : int;
    mutable wd_resyncs : int;
    mutable data_frames : int;
    mutable handshakes : int;  (* REQ and FIN frames sent *)
  }

  let outstanding t = match t.tx with Tx ((module P), s) -> P.sender_outstanding s

  let pull t supply =
    let p = supply () in
    let i = Ba_proto.Workload.index p in
    if i >= 0 && i < t.messages then
      (* Everything pulled but not outstanding is acknowledged. *)
      Ba_util.Ring_buffer.set t.pulls ~lo:(t.pulled - outstanding t) i (t.clock ());
    t.pulled <- t.pulled + 1;
    p

  let send_data t (d : W.data) =
    t.data_frames <- t.data_frames + 1;
    (match d.W.dkind with
    | W.Msg -> ()
    | W.Sync_req | W.Sync_fin -> t.handshakes <- t.handshakes + 1);
    let n = Codec.data_header_len + String.length d.W.payload in
    if Bytes.length t.buf < n then t.buf <- Bytes.create n;
    let len = Codec.encode_data t.buf d in
    (* Encoded, the frame goes back to the pool, as a simulated link
       returns it on delivery. *)
    W.release_data d;
    Shim.send t.shim t.buf len

  let acked t =
    let live = t.pulled - outstanding t in
    if live > t.watermark then t.watermark <- live;
    t.watermark

  (* A protocol without a crash lifecycle has no resync lever: the
     watchdog's verdict is counted and otherwise ignored, as in the
     simulated fabric. *)
  let resync t =
    t.wd_resyncs <- t.wd_resyncs + 1;
    match t.tx with
    | Tx ((module P), s) -> (
        match P.lifecycle with
        | None -> ()
        | Some l ->
            l.sender_crash s;
            l.sender_restart s)

  (* The watchdog's clock is a self-re-arming engine slot, so under a
     wall-clock driver "no progress for N checks" means N real check
     intervals of silence — peer-death detection by timeout. *)
  let check t =
    let delivered = acked t in
    (match t.tx with
    | Tx ((module P), s) ->
        Ba_proto.Watchdog.check t.dog ~delivered ~completed:(P.sender_done s)
          ~resync:(fun () -> resync t)
          ~gate:(Shim.gate t.shim));
    Ba_sim.Engine.slot_arm t.engine t.dog_slot ~delay:t.check_interval

  let make ~clock ~engine ~protocol:(module P : Ba_proto.Protocol.S) ~config ~messages
      ~payload_size ~wseed ?(watchdog = Ba_proto.Watchdog.default_config) ?plan
      ?(impair_seed = 1) ~send () =
    let shim =
      Shim.create engine ?plan ~seed:impair_seed ~transmit:(packer engine ~send) ()
    in
    let supply = Ba_proto.Workload.supplier ~seed:wseed ~size:payload_size ~count:messages in
    (* The protocol's callbacks and the watchdog's slot reach the record
       they are built into through [self ()]. *)
    let rec knot =
      lazy
        (let self () = Lazy.force knot in
         let s =
           P.create_sender engine config
             ~tx:(fun d -> send_data (self ()) d)
             ~next_payload:(fun () -> pull (self ()) supply)
         in
         {
           engine;
           messages;
           check_interval = watchdog.Ba_proto.Watchdog.check_interval;
           dog = Ba_proto.Watchdog.create watchdog;
           dog_slot = Ba_sim.Engine.slot_create engine (fun () -> check (self ()));
           shim;
           clock;
           pulls = Ba_util.Ring_buffer.create ~limit:max_int (-1);
           tx = Tx ((module P), s);
           buf = Bytes.create (Codec.data_header_len + payload_size);
           pulled = 0;
           watermark = 0;
           wd_resyncs = 0;
           data_frames = 0;
           handshakes = 0;
         })
    in
    let t = Lazy.force knot in
    Ba_sim.Engine.slot_arm engine t.dog_slot ~delay:t.check_interval;
    t

  let create = make ~clock:Driver.wall_us

  let on_frame t frame =
    match (frame, t.tx) with
    | Codec.Ack a, Tx ((module P), s) -> P.sender_on_ack s a
    | (Codec.Data _ | Codec.Batch _), _ -> ()

  let pump t = match t.tx with Tx ((module P), s) -> P.sender_pump s
  let finished t = match t.tx with Tx ((module P), s) -> P.sender_done s
  let pulled t = t.pulled
  (* Payload [i]'s pull time on the client's clock; -1 when not held. *)
  let pull_time t i =
    if Ba_util.Ring_buffer.mem t.pulls i then Ba_util.Ring_buffer.find t.pulls i else -1

  let pull_wall t i = float_of_int (pull_time t i) /. 1e6
  let data_frames t = t.data_frames
  let retransmissions t = match t.tx with Tx ((module P), s) -> P.sender_retransmissions s
  let resync_rounds t = t.handshakes
  let watchdog_resyncs t = t.wd_resyncs
  let quarantines t = Ba_proto.Watchdog.quarantine_events t.dog
  let watchdog_state t = Ba_proto.Watchdog.state t.dog
  let shim_counters t = Shim.counters t.shim
end

module Pair = struct
  type network = Loopback of { tick_us : int; deadline_s : float } | Virtual

  let virtual_tick_us = 200

  (* Where a virtual run gives up: far past any transfer the tests and
     tables run to completion, and soon enough on a stalled one. *)
  let virtual_deadline = 2_000_000

  type outcome = {
    completed : bool;
    digest : int;
    digest_expected : int;
    msgs_per_s : float;
    latency_ms : Ba_util.Qsketch.t;
    counters : Counters.t;
    client_shim : Counters.t;
    server_shim : Counters.t;
  }

  let run ~protocol ~config ~messages ~payload_size ~wseed ?plan ?(impair_seed = 1) ~network
      ?(on_setup = ignore) () =
    let srv = ref None and cli = ref None in
    let server_frame f from = match !srv with Some s -> Server.on_frame s f from | None -> ()
    and client_frame f _ = match !cli with Some c -> Client.on_frame c f | None -> () in
    let finished () =
      match (!srv, !cli) with
      | Some s, Some c -> Server.complete s && Client.finished c
      | _ -> false
    in
    (* Builds both halves on a network's engines and sends, with pull
       times on [clock], one unit of which is [ms] milliseconds, then
       runs the transfer with [go]: the seconds it took, and the
       datagrams sent in both directions and by the client. *)
    let transfer ~s_engine ~c_engine ~clock ~ms ~s_send ~c_send go =
      let latency_ms = Ba_util.Qsketch.create () in
      let s =
        Server.create ~engine:s_engine ~protocol ~config ~messages ~payload_size ~wseed ?plan
          ~impair_seed:(impair_seed * 2 + 1)
          ~on_deliver:(fun ~epoch:_ ~pos ~digest:_ ->
            match !cli with
            | Some c ->
                let t0 = Client.pull_time c (pos - 1) in
                if t0 >= 0 then
                  Ba_util.Qsketch.add_scaled latency_ms (clock () - t0) ms
            | None -> ())
          ~send:s_send ()
      in
      let c =
        Client.make ~clock ~engine:c_engine ~protocol ~config ~messages ~payload_size ~wseed
          ?plan ~impair_seed:(impair_seed * 2 + 2) ~send:c_send ()
      in
      srv := Some s;
      cli := Some c;
      on_setup ();
      let seconds, datagrams, data_datagrams = go c in
      let counters = Counters.create () in
      let add = Counters.add counters in
      add Delivered (Server.position s);
      add Duplicates (Server.duplicates s);
      add Misordered (Server.misordered s);
      add Corrupted (Server.corrupted s);
      add Retransmissions (Client.retransmissions c);
      add Datagrams_tx datagrams;
      add Data_datagrams data_datagrams;
      add Acks_sent (Server.acks_sent s);
      {
        completed = finished ();
        digest = Server.digest s;
        digest_expected = expected_digest ~wseed ~payload_size ~messages;
        msgs_per_s = (if seconds <= 0. then 0. else float_of_int (Server.position s) /. seconds);
        latency_ms;
        counters;
        client_shim = Client.shim_counters c;
        server_shim = Server.shim_counters s;
      }
    in
    match network with
    | Loopback { tick_us; deadline_s } ->
        let s_sock = Driver.loopback_socket () and c_sock = Driver.loopback_socket () in
        Fun.protect
          ~finally:(fun () ->
            Unix.close s_sock;
            Unix.close c_sock)
          (fun () ->
            let s_addr = Unix.getsockname s_sock in
            let s_engine = Ba_sim.Engine.create ~seed:impair_seed ()
            and c_engine = Ba_sim.Engine.create ~seed:(impair_seed + 1) () in
            let s_drv =
              Driver.create ~engine:s_engine ~sock:s_sock ~tick_us ~on_frame:server_frame ()
            and c_drv =
              Driver.create ~engine:c_engine ~sock:c_sock ~tick_us ~on_frame:client_frame ()
            in
            transfer ~s_engine ~c_engine ~clock:Driver.wall_us ~ms:1e-3
              ~s_send:(fun addr buf len -> ignore (Driver.send_to s_drv addr buf len))
              ~c_send:(fun buf len -> ignore (Driver.send_to c_drv s_addr buf len))
              (fun c ->
                let t0 = Unix.gettimeofday () in
                Client.pump c;
                ignore (Driver.run ~deadline_s ~stop:finished [ s_drv; c_drv ]);
                ( Unix.gettimeofday () -. t0,
                  Driver.tx_datagrams s_drv + Driver.tx_datagrams c_drv,
                  Driver.tx_datagrams c_drv )))
    | Virtual ->
        let engine = Ba_sim.Engine.create ~seed:impair_seed () in
        let scratch = Codec.scratch () in
        (* Each datagram arrives as a driver's socket drain hands it
           over, and the run ends at the arrival that completes it. *)
        let link on_frame from =
          Ba_channel.Link.create engine ~delay:(Ba_channel.Dist.Constant 1)
            ~deliver:(fun b ->
              ignore (Codec.decode_into scratch b ~len:(Bytes.length b) on_frame from);
              if finished () then Ba_sim.Engine.stop engine)
            ()
        in
        (* The server learns the client's address from its frames. *)
        let to_server = link server_frame (Unix.ADDR_UNIX "client")
        and to_client = link client_frame no_peer in
        let copy_to l buf len = Ba_channel.Link.send l (Bytes.sub buf 0 len) in
        let sent l = Counters.get (Ba_channel.Link.counters l) Offered in
        transfer ~s_engine:engine ~c_engine:engine
          ~clock:(fun () -> Ba_sim.Engine.now engine)
          ~ms:(float_of_int virtual_tick_us *. 1e-3)
          ~s_send:(fun _ -> copy_to to_client)
          ~c_send:(copy_to to_server)
          (fun c ->
            Client.pump c;
            if not (finished ()) then Ba_sim.Engine.run engine ~until:virtual_deadline;
            ( float_of_int (Ba_sim.Engine.now engine * virtual_tick_us) *. 1e-6,
              sent to_server + sent to_client,
              sent to_server ))
end
