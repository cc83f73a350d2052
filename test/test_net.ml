(* Transport backend tests: the wire codec round-trips every frame kind
   and rejects garbage without raising; the impairment shim replays a
   seed exactly; and a blockack transfer completes over real loopback
   UDP under 5% loss with duplication and reordering — delivering every
   payload exactly once, in order, with the workload digest intact. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Codec = Ba_transport.Codec
module Shim = Ba_transport.Shim
module Endpoint = Ba_transport.Endpoint
module Wire = Ba_proto.Wire
module Fault_plan = Ba_channel.Fault_plan

(* ------------------------------------------------------------------ *)
(* Codec round-trips *)

let payload_gen =
  QCheck.Gen.(
    frequency
      [
        (3, string_size (int_bound 64));
        (1, string_size (int_bound 2048));
        (1, return "");
      ])

let frame_gen_of payload_gen =
  QCheck.Gen.(
    let nat = map abs int in
    let epoch = int_bound 5 in
    let* cls = int_bound 4 in
    match cls with
    | 0 ->
        let* seq = nat and* payload = payload_gen and* e = epoch in
        return (Codec.Data { (Wire.make_data_e ~epoch:e ~seq ~payload) with Wire.seq })
    | 1 ->
        let* e = epoch in
        return (Codec.Data (Wire.make_sync_req ~epoch:e))
    | 2 ->
        let* e = epoch in
        return (Codec.Data (Wire.make_sync_fin ~epoch:e))
    | 3 ->
        let* lo = nat and* hi = nat and* e = epoch in
        return (Codec.Ack (Wire.make_ack_e ~epoch:e ~lo ~hi))
    | _ ->
        let* pos = nat and* e = epoch in
        return (Codec.Ack (Wire.make_sync_pos ~epoch:e ~pos)))

let frame_gen = frame_gen_of payload_gen

let rec frame_print f =
  match f with
  | Codec.Data d -> Format.asprintf "%a" Wire.pp_data d
  | Codec.Ack a -> Format.asprintf "%a" Wire.pp_ack a
  | Codec.Batch { frames; malformed } ->
      Printf.sprintf "batch[%s] malformed=%d"
        (String.concat "; " (List.map frame_print frames))
        malformed

let frame_arb = QCheck.make ~print:frame_print frame_gen

let rec frame_eq a b =
  match (a, b) with
  | Codec.Data x, Codec.Data y ->
      x.Wire.seq = y.Wire.seq
      && String.equal x.Wire.payload y.Wire.payload
      && x.Wire.epoch = y.Wire.epoch && x.Wire.dkind = y.Wire.dkind
      && x.Wire.check = y.Wire.check
  | Codec.Ack x, Codec.Ack y ->
      x.Wire.lo = y.Wire.lo && x.Wire.hi = y.Wire.hi && x.Wire.epoch = y.Wire.epoch
      && x.Wire.akind = y.Wire.akind && x.Wire.check = y.Wire.check
  | Codec.Batch x, Codec.Batch y ->
      x.malformed = y.malformed
      && List.length x.frames = List.length y.frames
      && List.for_all2 frame_eq x.frames y.frames
  | _ -> false

(* Containers of 1..12 single frames. *)
let batch_arb =
  QCheck.make ~print:frame_print
    QCheck.Gen.(
      map
        (fun frames -> Codec.Batch { frames; malformed = 0 })
        (list_size (int_range 1 12) frame_gen))

let encode_fresh f =
  let buf = Bytes.create (Codec.encoded_len f) in
  let len = Codec.encode buf f in
  (buf, len)

let roundtrip =
  QCheck.Test.make ~name:"encode ∘ decode = id for every frame kind" ~count:500 frame_arb
    (fun f ->
      let buf = Bytes.create Codec.max_datagram in
      let len = Codec.encode buf f in
      match Codec.decode buf ~len with
      | Ok f' -> frame_eq f f' && Codec.frame_ok f' = Codec.frame_ok f
      | Error e -> QCheck.Test.fail_reportf "decode rejected own encoding: %s" e)

let roundtrip_checksum =
  QCheck.Test.make ~name:"constructor-built frames stay valid through the wire" ~count:300
    frame_arb (fun f ->
      (* make_* computes the checksum, so round-tripped frames validate —
         except Data frames whose seq we overwrote to exercise big
         sequence numbers; skip those. *)
      let built_ok = Codec.frame_ok f in
      let buf = Bytes.create Codec.max_datagram in
      let len = Codec.encode buf f in
      match Codec.decode buf ~len with
      | Ok f' -> Codec.frame_ok f' = built_ok
      | Error e -> QCheck.Test.fail_reportf "decode rejected own encoding: %s" e)

let exact_buffer () =
  let f = Codec.Data (Wire.make_data_e ~epoch:3 ~seq:41 ~payload:"hello") in
  let n = Codec.encoded_len f in
  let buf = Bytes.create n in
  check Alcotest.int "encode fills the exact buffer" n (Codec.encode buf f);
  (match Codec.decode buf ~len:n with
  | Ok f' -> check Alcotest.bool "roundtrip" true (frame_eq f f')
  | Error e -> Alcotest.failf "decode: %s" e);
  match Codec.encode (Bytes.create (n - 1)) f with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "encode into a short buffer must raise"

(* ------------------------------------------------------------------ *)
(* decode never raises, and rejects what it must *)

let never_raises_random =
  QCheck.Test.make ~name:"decode never raises on random bytes" ~count:2000
    QCheck.(string_of_size Gen.(int_bound 200))
    (fun s ->
      let buf = Bytes.of_string s in
      match Codec.decode buf ~len:(Bytes.length buf) with
      | Ok f ->
          (* A random blob that parses must still face the checksum. *)
          ignore (Codec.frame_ok f);
          true
      | Error _ -> true)

let rejects_truncation =
  QCheck.Test.make ~name:"decode rejects every truncation of a valid frame" ~count:200
    frame_arb (fun f ->
      let buf = Bytes.create Codec.max_datagram in
      let len = Codec.encode buf f in
      let ok = ref true in
      for cut = 0 to len - 1 do
        match Codec.decode buf ~len:cut with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      !ok)

let never_raises_bitflips =
  QCheck.Test.make ~name:"decode survives any single bit flip" ~count:300
    QCheck.(pair frame_arb (int_bound 10_000))
    (fun (f, r) ->
      let buf = Bytes.create Codec.max_datagram in
      let len = Codec.encode buf f in
      let bit = r mod (len * 8) in
      let pos = bit / 8 in
      Bytes.set_uint8 buf pos (Bytes.get_uint8 buf pos lxor (1 lsl (bit mod 8)));
      match Codec.decode buf ~len with
      | Ok f' ->
          (* Parsed despite the flip: either the flip hit a don't-care
             re-encoding of the same frame or the checksum catches it. *)
          ignore (Codec.frame_ok f');
          true
      | Error _ -> true)

(* ------------------------------------------------------------------ *)
(* Containers: the same contract, plus per-frame isolation *)

let batch_roundtrip =
  QCheck.Test.make ~name:"encode ∘ decode = id for containers" ~count:300 batch_arb (fun b ->
      let buf, len = encode_fresh b in
      match Codec.decode buf ~len with
      | Ok b' -> frame_eq b b' && Codec.frame_ok b' = Codec.frame_ok b
      | Error e -> QCheck.Test.fail_reportf "decode rejected own container: %s" e)

(* Bytes behind a container header: chunks of random bytes or of
   encoded frames, each behind a length prefix that is usually right,
   and a count that is usually right. *)
let container_bytes_gen =
  QCheck.Gen.(
    let chunk =
      frequency
        [
          (2, string_size (int_bound 40));
          ( 1,
            map
              (fun f ->
                let buf, len = encode_fresh f in
                Bytes.sub_string buf 0 len)
              frame_gen );
        ]
    in
    let* chunks = list_size (int_bound 8) chunk in
    let* prefixes =
      flatten_l
        (List.map
           (fun c ->
             frequency [ (4, return (String.length c)); (1, int_bound 0xFFFF) ])
           chunks)
    in
    let* count = frequency [ (4, return (List.length chunks)); (1, int_bound 255) ] in
    let* tail = string_size (int_bound 3) in
    let b = Buffer.create 256 in
    Buffer.add_string b "\xBA\x02\x02";
    Buffer.add_uint8 b count;
    List.iter2
      (fun c p ->
        Buffer.add_uint16_le b p;
        Buffer.add_string b c)
      chunks prefixes;
    let* pad = bool in
    if pad then Buffer.add_string b tail;
    return (Buffer.contents b))

let batch_never_raises_random =
  QCheck.Test.make ~name:"decode never raises on random bytes behind a container header"
    ~count:2000
    (QCheck.make ~print:String.escaped container_bytes_gen)
    (fun s ->
      let buf = Bytes.of_string s in
      match Codec.decode buf ~len:(Bytes.length buf) with
      | Ok f ->
          ignore (Codec.frame_ok f);
          true
      | Error _ -> true)

let batch_rejects_truncation =
  QCheck.Test.make ~name:"decode rejects every truncation of a container" ~count:200 batch_arb
    (fun b ->
      let buf, len = encode_fresh b in
      let ok = ref true in
      for cut = 0 to len - 1 do
        match Codec.decode buf ~len:cut with
        | Ok _ -> ok := false
        | Error _ -> ()
      done;
      !ok)

let batch_never_raises_bitflips =
  QCheck.Test.make ~name:"decode survives any single bit flip in a container" ~count:500
    QCheck.(pair batch_arb (int_bound 1_000_000))
    (fun (b, r) ->
      let buf, len = encode_fresh b in
      let bit = r mod (len * 8) in
      let pos = bit / 8 in
      Bytes.set_uint8 buf pos (Bytes.get_uint8 buf pos lxor (1 lsl (bit mod 8)));
      match Codec.decode buf ~len with
      | Ok f ->
          ignore (Codec.frame_ok f);
          true
      | Error _ -> true)

(* Offset of inner frame [k]'s first byte in an encoded container. *)
let inner_offset frames k =
  let rec go off i = function
    | f :: rest when i < k -> go (off + Codec.batch_prefix_len + Codec.encoded_len f) (i + 1) rest
    | _ -> off + Codec.batch_prefix_len
  in
  go Codec.batch_header_len 0 frames

(* Break inner frame [k] four ways — magic, version, class, and a
   payload length that no longer matches its prefix — without touching
   any prefix. *)
let break_inner buf off f how =
  match how with
  | 0 -> Bytes.set_uint8 buf off 0
  | 1 -> Bytes.set_uint8 buf (off + 1) 9
  | 2 -> Bytes.set_uint8 buf (off + 2) 7
  | _ -> (
      match f with
      | Codec.Data _ ->
          Bytes.set_int32_le buf (off + 24) (Int32.add (Bytes.get_int32_le buf (off + 24)) 1l)
      | _ -> Bytes.set_uint8 buf off 0)

let batch_isolates_malformed =
  QCheck.Test.make ~name:"a malformed inner frame costs only itself" ~count:500
    QCheck.(triple batch_arb (int_bound 1000) (int_bound 3))
    (fun (b, r, how) ->
      match b with
      | Codec.Batch { frames; _ } ->
          let k = r mod List.length frames in
          let buf, len = encode_fresh b in
          break_inner buf (inner_offset frames k) (List.nth frames k) how;
          let others = List.filteri (fun i _ -> i <> k) frames in
          (match Codec.decode buf ~len with
          | Ok got -> frame_eq got (Codec.Batch { frames = others; malformed = 1 })
          | Error e -> QCheck.Test.fail_reportf "container rejected whole: %s" e)
      | _ -> false)

let batch_encode_rules () =
  let d = Codec.Data (Wire.make_data_e ~epoch:0 ~seq:0 ~payload:"xy") in
  let raises f =
    match Codec.encode (Bytes.create 65536) f with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check Alcotest.bool "empty container" true (raises (Codec.Batch { frames = []; malformed = 0 }));
  check Alcotest.bool "nested container" true
    (raises (Codec.Batch { frames = [ Codec.Batch { frames = [ d ]; malformed = 0 } ]; malformed = 0 }));
  check Alcotest.bool "256 frames" true
    (raises (Codec.Batch { frames = List.init 256 (fun _ -> d); malformed = 0 }));
  check Alcotest.bool "malformed count" true (raises (Codec.Batch { frames = [ d ]; malformed = 1 }));
  (* A version-2 header on anything but a container is garbage. *)
  let buf, len = encode_fresh d in
  Bytes.set_uint8 buf 1 Codec.version;
  match Codec.decode buf ~len with
  | Ok _ -> Alcotest.fail "version 2 data frame accepted"
  | Error _ -> ()

let rejects_padding () =
  let f = Codec.Ack (Wire.make_ack_e ~epoch:0 ~lo:1 ~hi:4) in
  let buf = Bytes.create Codec.max_datagram in
  let len = Codec.encode buf f in
  (match Codec.decode buf ~len:(len + 8) with
  | Ok _ -> Alcotest.fail "padded ack must be rejected"
  | Error _ -> ());
  let d = Codec.Data (Wire.make_data_e ~epoch:0 ~seq:0 ~payload:"xy") in
  let dlen = Codec.encode buf d in
  match Codec.decode buf ~len:(dlen + 1) with
  | Ok _ -> Alcotest.fail "padded data must be rejected"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* In-place decoding: the driver's parse agrees with [decode] *)

(* A frame [Codec.decode_into] lends out, copied field by field. *)
let copy_frame = function
  | Codec.Data d ->
      Codec.Data
        {
          Wire.seq = d.Wire.seq;
          payload = d.Wire.payload;
          epoch = d.Wire.epoch;
          dkind = d.Wire.dkind;
          check = d.Wire.check;
        }
  | Codec.Ack a ->
      Codec.Ack
        {
          Wire.lo = a.Wire.lo;
          hi = a.Wire.hi;
          epoch = a.Wire.epoch;
          akind = a.Wire.akind;
          check = a.Wire.check;
        }
  | Codec.Batch _ as b -> b

(* One scratch for every parse, as a driver keeps one per domain. *)
let in_place =
  let scratch = Codec.scratch () in
  fun buf ~len ->
    let seen = ref [] in
    let r = Codec.decode_into scratch buf ~len (fun f seen -> seen := copy_frame f :: !seen) seen in
    (r, List.rev !seen)

(* Random bytes, bytes behind a container header, and every truncation
   and every single-byte flip of an encoded frame or container. *)
let decode_inputs_gen =
  QCheck.Gen.(
    let small = frame_gen_of (string_size (int_bound 24)) in
    let mutations =
      let* f =
        frequency
          [
            (1, small);
            ( 1,
              map
                (fun frames -> Codec.Batch { frames; malformed = 0 })
                (list_size (int_range 1 6) small) );
          ]
      and* mask = int_range 1 255 in
      let buf, len = encode_fresh f in
      let s = Bytes.sub_string buf 0 len in
      let flip i =
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor mask) else c) s
      in
      return ((s :: List.init len (String.sub s 0)) @ List.init len flip)
    in
    frequency
      [
        (1, map (fun s -> [ s ]) (string_size (int_bound 200)));
        (1, map (fun s -> [ s ]) container_bytes_gen);
        (2, mutations);
      ])

let in_place_agrees =
  QCheck.Test.make ~name:"in-place parse and decode agree on every input" ~count:300
    (QCheck.make ~print:(fun l -> String.concat "\n" (List.map String.escaped l)) decode_inputs_gen)
    (List.for_all (fun s ->
         let buf = Bytes.of_string s in
         let len = Bytes.length buf in
         let r, seen = in_place buf ~len in
         let same frames =
           List.length seen = List.length frames && List.for_all2 frame_eq seen frames
         in
         match Codec.decode buf ~len with
         | Error _ -> r < 0 && seen = []
         | Ok (Codec.Batch { frames; malformed }) -> r = malformed && same frames
         | Ok f -> r = 0 && same [ f ]))

(* Words of a fresh string of [n] bytes: a header, then the bytes and
   at least one padding byte in whole words. *)
let string_words n = 2 + (n / (Sys.word_size / 8))

(* Minor words one in-place parse of [f]'s encoding takes, and the
   frames it handed over. *)
let parse_words f =
  let scratch = Codec.scratch () in
  let buf, len = encode_fresh f in
  let count = ref 0 in
  let parse () = Codec.decode_into scratch buf ~len (fun _ count -> incr count) count in
  ignore (parse ());
  count := 0;
  let w0 = Gc.minor_words () in
  let r = parse () in
  let words = Gc.minor_words () -. w0 in
  check Alcotest.int "no malformed frame" 0 r;
  (int_of_float words, !count)

let in_place_allocation () =
  let container frames = Codec.Batch { frames; malformed = 0 } in
  let data =
    container
      (List.init 16 (fun i ->
           Codec.Data (Wire.make_data_e ~epoch:1 ~seq:i ~payload:(String.make 16 'p'))))
  in
  check Alcotest.(pair int int) "16 data frames: their 16 payload copies" (16 * string_words 16, 16)
    (parse_words data);
  let acks = container (List.init 16 (fun i -> Codec.Ack (Wire.make_ack_e ~epoch:1 ~lo:i ~hi:i))) in
  check Alcotest.(pair int int) "16 acks: nothing" (0, 16) (parse_words acks)

(* ------------------------------------------------------------------ *)
(* Shim determinism *)

let shim_trace ~seed ~plan n =
  let engine = Ba_sim.Engine.create ~seed:1 () in
  let out = ref [] in
  let shim =
    Shim.create engine ~plan ~seed
      ~transmit:(fun buf len -> out := Bytes.sub_string buf 0 len :: !out)
      ()
  in
  let buf = Bytes.create Codec.max_datagram in
  for i = 0 to n - 1 do
    let len =
      Codec.encode buf (Codec.Data (Wire.make_data_e ~epoch:0 ~seq:i ~payload:"payload"))
    in
    Shim.send shim buf len
  done;
  (* Flush delayed copies. *)
  Ba_sim.Engine.run engine;
  (List.rev !out, Shim.counters shim)

let shim_replay () =
  let plan =
    match Fault_plan.of_string "ge(0.1->0.3,l=0.08/0.4)+dup(0.05x2)+corr(0.04)+spike(0.05,+40)" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let t1, s1 = shim_trace ~seed:77 ~plan 500 in
  let t2, s2 = shim_trace ~seed:77 ~plan 500 in
  check Alcotest.bool "same seed, same datagram stream" true (t1 = t2);
  check Alcotest.bool "same seed, same counters" true (s1 = s2);
  if Ba_util.Counters.get s1 Lost = 0 then Alcotest.fail "plan injected no loss";
  if Ba_util.Counters.get s1 Mangled = 0 then Alcotest.fail "plan injected no corruption";
  let t3, _ = shim_trace ~seed:78 ~plan 500 in
  check Alcotest.bool "different seed, different stream" false (t1 = t3)

let shim_gate () =
  let engine = Ba_sim.Engine.create ~seed:1 () in
  let passed = ref 0 in
  let shim = Shim.create engine ~seed:1 ~transmit:(fun _ _ -> incr passed) () in
  let buf = Bytes.create 8 in
  Shim.send shim buf 8;
  Shim.gate shim true;
  Shim.send shim buf 8;
  Shim.send shim buf 8;
  Shim.gate shim false;
  Shim.send shim buf 8;
  check Alcotest.int "gated sends are discarded" 2 !passed;
  check Alcotest.int "and counted" 2 (Ba_util.Counters.get (Shim.counters shim) Gated)

(* ------------------------------------------------------------------ *)
(* Real loopback UDP *)

let entry name =
  match Ba_registry.Registry.find name with
  | Some e -> e
  | None -> Alcotest.failf "unknown protocol %s" name

let loopback_sock = Ba_transport.Driver.loopback_socket
let loopback = Endpoint.Pair.Loopback { tick_us = 200; deadline_s = 30. }

let pair ?plan ?(messages = 120) ?(payload_size = 32) ?on_setup name =
  let e = entry name in
  let config = Ba_registry.Registry.config e () in
  Endpoint.Pair.run ~protocol:e.Ba_registry.Registry.protocol ~config ~messages
    ~payload_size ~wseed:7 ?plan ~impair_seed:11 ~network:loopback ?on_setup ()

let count (o : Endpoint.Pair.outcome) = Ba_util.Counters.get o.Endpoint.Pair.counters

let assert_clean name (o : Endpoint.Pair.outcome) =
  if not o.Endpoint.Pair.completed then
    Alcotest.failf "%s: loopback transfer did not complete (delivered %d)" name
      (count o Delivered);
  check Alcotest.int (name ^ ": duplicates") 0 (count o Duplicates);
  check Alcotest.int (name ^ ": misordered") 0 (count o Misordered);
  check Alcotest.int (name ^ ": corrupted") 0 (count o Corrupted);
  check Alcotest.bool (name ^ ": digest") true
    (o.Endpoint.Pair.digest = o.Endpoint.Pair.digest_expected)

(* Every delivery finds its pull time on the real clock too. *)
let loopback_clean () =
  let o = pair "blockack" in
  assert_clean "blockack/clean" o;
  check Alcotest.int "one latency sample per message" (count o Delivered)
    (Ba_util.Qsketch.count o.Endpoint.Pair.latency_ms)

let loopback_impaired () =
  let plan =
    match Fault_plan.of_string "ge(0.02->0.3,l=0.05/0.3)+dup(0.03x2)+spike(0.03,+30)" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  let o = pair ~plan "blockack" in
  assert_clean "blockack/5% loss" o;
  let lost s = Ba_util.Counters.get s Lost in
  if lost o.Endpoint.Pair.client_shim + lost o.Endpoint.Pair.server_shim = 0 then
    Alcotest.fail "impairment was configured but nothing was dropped"

let loopback_baseline () = assert_clean "go-back-n/clean" (pair ~messages:60 "go-back-n")

(* Both ends hand their sent frames back to the [Wire] pool, as the
   simulated link does, and the drivers decode every arrival in place,
   so a clean blockack pair allocates a bounded number of bytes per
   message. Measured as the slope between two transfer lengths, the way
   test_e2e's "allocation slope" measures the simulated data path:
   64 B/msg on a 2-vCPU x86-64 host, exactly the two payload strings
   (the client's pull and the server's copy). It was 112 while the
   pair boxed each latency sample for [Qsketch.add] and built every
   payload again to compute the expected digest, 210 when the drivers
   made their socket calls through [Unix] (an exception per drain, a
   tuple and an address per datagram, lists per wait, a closure per
   send) and frames were wrapped to be encoded, 226 when the pair took
   each latency sample as a difference of float seconds, 242 when each
   pull came wrapped in an option, 258 when the client's pull log also
   kept boxed float times and 410 when every arrival was decoded into
   fresh records. *)
let loopback_alloc_per_message () =
  let budget = 71. in
  let alloc messages =
    let run () = assert_clean "blockack/alloc" (pair ~messages ~payload_size:16 "blockack") in
    run ();
    Gc.minor ();
    let a0 = Gc.allocated_bytes () in
    run ();
    Gc.minor ();
    Gc.allocated_bytes () -. a0
  in
  let slope = (alloc 4_000 -. alloc 2_000) /. 2_000. in
  Printf.printf "clean pair: %.0f B/msg\n" slope;
  if slope > budget then
    Alcotest.failf "clean pair allocates %.0f B/msg, want <= %.0f" slope budget

(* A loopback pair's per-connection state: the live heap its two
   socket loops and two endpoints hold once built, set up as ba_bench's
   udp-loopback is (20k messages of 16 B, window 16, rto 250). The
   receive buffer is one per domain, so it is not counted. The figure
   is deterministic (7,112 B on x86-64); the ceiling fails a column per
   message (160 kB here), a receive buffer per socket loop or an encode
   buffer sized to the largest datagram (61 kB). *)
let loopback_state_per_connection () =
  let ceiling = 16_000 in
  let live_bytes () =
    Ba_util.Column_pool.clear ();
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words * (Sys.word_size / 8)
  in
  let state = ref 0 in
  let live0 = live_bytes () in
  let on_setup () = state := live_bytes () - live0 in
  assert_clean "blockack/state" (pair ~messages:20_000 ~payload_size:16 ~on_setup "blockack");
  Printf.printf "pair state: %d B/conn\n" !state;
  if !state > ceiling then
    Alcotest.failf "a loopback pair holds %d B/conn once set up, want <= %d" !state ceiling

(* The client keeps pull times for about a window of messages, not one
   per message. Over a long transfer every delivery must still find its
   own: the latency sketch holds one sample per message, on a clean link
   and under loss, duplication and reordering. Go-back-N runs there with
   unbounded sequence numbers, so a timeout shorter than a delay spike
   costs retransmissions but never safety, and with a short timeout,
   since every loss stalls it for one. The pair runs on the virtual
   network, which makes the check deterministic; "blockack clean link"
   makes it on real sockets. *)
let loopback_latency_per_message () =
  let messages = 20_000 in
  let plan =
    match Fault_plan.of_string "ge(0.02->0.3,l=0.05/0.3)+dup(0.03x2)+spike(0.03,+30)" with
    | Ok p -> p
    | Error e -> Alcotest.fail e
  in
  List.iter
    (fun (name, config, plan) ->
      let e = entry name in
      let o =
        Endpoint.Pair.run ~protocol:e.Ba_registry.Registry.protocol ~config ~messages
          ~payload_size:16 ~wseed:7 ?plan ~impair_seed:11 ~network:Virtual ()
      in
      assert_clean name o;
      check Alcotest.int (name ^ ": one latency sample per message") messages
        (Ba_util.Qsketch.count o.Endpoint.Pair.latency_ms))
    [
      ("blockack", Ba_registry.Registry.config (entry "blockack") (), None);
      ("go-back-n", Ba_proto.Proto_config.make ~window:16 ~rto:40 (), Some plan);
    ]

(* Section V decodes a wire number modulo 2w, which is sound only while
   no copy of a frame outlives the retransmission timer. A delay spike
   of 600 ticks against an rto of 250 breaks that: a late frame can
   decode into the current window. The UDP stack has no frame lifetime yet, so
   blockack-multi delivers duplicates and out-of-order messages, then
   stalls for good. This pins today's outcome; a lifetime at the driver
   changes it on purpose. *)
(* ROADMAP item 11's probe on virtual time: protocol [name]'s registry
   config at window 8 and rto 250, 20k × 16 B, 2% of datagrams delayed
   600 ticks. *)
let late_frame_probe name =
  let e = entry name in
  let config = Ba_registry.Registry.config ~window:8 ~rto:250 e () in
  let plan =
    match Fault_plan.of_string "spike(0.02,+600)" with Ok p -> p | Error e -> Alcotest.fail e
  in
  ( config.Ba_proto.Proto_config.wire_modulus,
    Endpoint.Pair.run ~protocol:e.Ba_registry.Registry.protocol ~config ~messages:20_000
      ~payload_size:16 ~wseed:7 ~plan ~impair_seed:11 ~network:Virtual () )

let recorded_late_frame_misdecode () =
  let modulus, o = late_frame_probe "blockack-multi" in
  check Alcotest.(option int) "modulus" (Some 16) modulus;
  check Alcotest.bool "completed" false o.Endpoint.Pair.completed;
  check Alcotest.int "position reached" 1158 (count o Delivered);
  check Alcotest.int "duplicates" 11 (count o Duplicates);
  check Alcotest.int "misordered" 6 (count o Misordered)

(* The same probe for the baselines, recorded beside blockack's and
   not mended either. Selective repeat also decodes modulo 16 and
   completes with duplicate and out-of-order deliveries; go-back-N's
   registry config keeps unbounded numbers, so a late frame is only a
   stale copy and the run stays clean, at the cost of its resends. *)
let recorded_late_frame_baselines () =
  let modulus, o = late_frame_probe "selective-repeat" in
  check Alcotest.(option int) "selective repeat: modulus" (Some 16) modulus;
  check Alcotest.bool "selective repeat: completed" true o.Endpoint.Pair.completed;
  check Alcotest.int "selective repeat: duplicates" 206 (count o Duplicates);
  check Alcotest.int "selective repeat: misordered" 135 (count o Misordered);
  check Alcotest.int "selective repeat: retransmissions" 742 (count o Retransmissions);
  let modulus, o = late_frame_probe "go-back-n" in
  check Alcotest.(option int) "go-back-n: unbounded numbers" None modulus;
  assert_clean "go-back-n/late frames" o;
  check Alcotest.int "go-back-n: retransmissions" 3128 (count o Retransmissions)

(* Whole-datagram loss: a pair wired like [Endpoint.Pair.run] whose
   client [send] drops every 5th datagram. Each drop is a container, so
   the server loses a burst of up to a window of frames at once. *)
let loopback_datagram_loss () =
  let messages = 300 and payload_size = 16 and wseed = 7 in
  let e = entry "blockack" in
  let protocol = e.Ba_registry.Registry.protocol
  and config = Ba_registry.Registry.config e () in
  let s_sock = loopback_sock () and c_sock = loopback_sock () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close s_sock;
      Unix.close c_sock)
    (fun () ->
      let s_addr = Unix.getsockname s_sock in
      let s_engine = Ba_sim.Engine.create ~seed:1 ()
      and c_engine = Ba_sim.Engine.create ~seed:2 () in
      let srv = ref None and cli = ref None in
      let s_drv =
        Ba_transport.Driver.create ~engine:s_engine ~sock:s_sock ~tick_us:200
          ~on_frame:(fun f from ->
            match !srv with Some s -> Endpoint.Server.on_frame s f from | None -> ())
          ()
      and c_drv =
        Ba_transport.Driver.create ~engine:c_engine ~sock:c_sock ~tick_us:200
          ~on_frame:(fun f _ -> match !cli with Some c -> Endpoint.Client.on_frame c f | None -> ())
          ()
      in
      let sent = ref 0 and dropped = ref 0 and frames_lost = ref 0 in
      let server =
        Endpoint.Server.create ~engine:s_engine ~protocol ~config ~messages ~payload_size ~wseed
          ~send:(fun addr buf len -> ignore (Ba_transport.Driver.send_to s_drv addr buf len))
          ()
      and client =
        Endpoint.Client.create ~engine:c_engine ~protocol ~config ~messages ~payload_size ~wseed
          ~send:(fun buf len ->
            incr sent;
            if !sent mod 5 = 0 then begin
              incr dropped;
              match Codec.decode buf ~len with
              | Ok (Codec.Batch { frames; _ }) -> frames_lost := !frames_lost + List.length frames
              | Ok _ -> incr frames_lost
              | Error err -> Alcotest.failf "client sent an undecodable datagram: %s" err
            end
            else ignore (Ba_transport.Driver.send_to c_drv s_addr buf len))
          ()
      in
      srv := Some server;
      cli := Some client;
      Endpoint.Client.pump client;
      let completed =
        Ba_transport.Driver.run ~deadline_s:30.
          ~stop:(fun () -> Endpoint.Server.complete server && Endpoint.Client.finished client)
          [ s_drv; c_drv ]
      in
      check Alcotest.bool "completed" true completed;
      check Alcotest.int "delivered" messages (Endpoint.Server.position server);
      check Alcotest.int "duplicates" 0 (Endpoint.Server.duplicates server);
      check Alcotest.int "misordered" 0 (Endpoint.Server.misordered server);
      check Alcotest.int "corrupted" 0 (Endpoint.Server.corrupted server);
      check Alcotest.int "digest"
        (Endpoint.expected_digest ~wseed ~payload_size ~messages)
        (Endpoint.Server.digest server);
      if !dropped = 0 then Alcotest.fail "no datagram was dropped";
      if !frames_lost <= !dropped then
        Alcotest.failf "%d dropped datagrams carried only %d frames: no burst was lost" !dropped
          !frames_lost)

(* The client's packer, with the engine stepped by hand: one pumped
   window of [size]-byte payloads, and what reaches [send] once the
   zero-delay slot fires. *)
let packed_window size =
  let engine = Ba_sim.Engine.create ~seed:1 () in
  let config = Ba_proto.Proto_config.make ~window:16 () in
  let sent = ref [] in
  let client =
    Endpoint.Client.create ~engine ~protocol:Blockack.Protocols.multi ~config ~messages:100
      ~payload_size:size ~wseed:1
      ~send:(fun buf len -> sent := Bytes.sub buf 0 len :: !sent)
      ()
  in
  Endpoint.Client.pump client;
  let held = List.length !sent in
  Ba_sim.Engine.run engine ~until:0;
  (held, List.rev !sent)

(* A go-back-N client whose acks never come: the watchdog reaches its
   resync and quarantine verdicts, and a protocol without a crash
   lifecycle has no lever to pull, so the client keeps running. *)
let client_without_lifecycle_survives_watchdog () =
  let engine = Ba_sim.Engine.create ~seed:1 () in
  let protocol = Ba_baselines.Go_back_n.protocol in
  let watchdog =
    {
      Ba_proto.Watchdog.check_interval = 100;
      stall_checks = 1;
      degraded_checks = 1;
      max_resyncs = 2;
      probation_checks = 2;
    }
  in
  let client =
    Endpoint.Client.create ~engine ~protocol
      ~config:(Ba_proto.Proto_config.make ~window:4 ~rto:250 ())
      ~messages:50 ~payload_size:16 ~wseed:1 ~watchdog ~send:(fun _ _ -> ()) ()
  in
  Endpoint.Client.pump client;
  Ba_sim.Engine.run engine ~until:5_000;
  check Alcotest.bool "watchdog resynced more than once" true
    (Endpoint.Client.watchdog_resyncs client > 1);
  check Alcotest.int "no handshake frames" 0 (Endpoint.Client.resync_rounds client);
  check Alcotest.bool "not finished" false (Endpoint.Client.finished client)

(* After one pumped window the pull log holds several slots: index 0
   reads the wall-clock time of its pull, and an index below 0 was never
   pulled, so it reads negative instead of indexing the log with a
   negative remainder. *)
let pull_wall_negative_index () =
  let engine = Ba_sim.Engine.create ~seed:1 () in
  let client =
    Endpoint.Client.create ~engine ~protocol:Blockack.Protocols.multi
      ~config:(Ba_proto.Proto_config.make ~window:8 ()) ~messages:20 ~payload_size:16 ~wseed:1
      ~send:(fun _ _ -> ()) ()
  in
  let before = Unix.gettimeofday () in
  Endpoint.Client.pump client;
  let after = Unix.gettimeofday () in
  check Alcotest.bool "pulled a window" true (Endpoint.Client.pulled client >= 2);
  (* Stored as whole microseconds, the pull time still lies within the
     pump, give or take the microsecond rounding. *)
  let t0 = Endpoint.Client.pull_wall client 0 in
  if not (t0 >= before -. 1e-6 && t0 <= after +. 1e-6) then
    Alcotest.failf "index 0 pulled at %.6f, outside the pump [%.6f, %.6f]" t0 before after;
  List.iter
    (fun i ->
      check Alcotest.bool (Printf.sprintf "index %d reads negative" i) true
        (Endpoint.Client.pull_wall client i < 0.))
    [ -1; -3; -8; min_int ]

let frames_in b =
  match Codec.decode b ~len:(Bytes.length b) with
  | Ok (Codec.Batch { frames; malformed = 0 }) -> List.length frames
  | Ok (Codec.Data _) -> 1
  | Ok _ | Error _ -> Alcotest.fail "packer sent an ack or garbage"

let packer_one_datagram () =
  let held, sent = packed_window 16 in
  check Alcotest.int "nothing leaves before the slot fires" 0 held;
  check Alcotest.(list int) "one container for the window" [ 16 ] (List.map frames_in sent)

let packer_caps_container () =
  (* 100 B payloads: 128 B frames, 10 fit under the cap. *)
  let _, sent = packed_window 100 in
  check Alcotest.(list int) "split at the cap" [ 10; 6 ] (List.map frames_in sent);
  List.iter
    (fun b -> if Bytes.length b > Codec.batch_cap then Alcotest.fail "container over the cap")
    sent;
  (* Frames larger than the cap go alone, bare. *)
  let _, sent = packed_window Codec.batch_cap in
  check Alcotest.int "one datagram per oversized frame" 16 (List.length sent);
  List.iter
    (fun b ->
      match Codec.decode b ~len:(Bytes.length b) with
      | Ok (Codec.Data _) -> ()
      | _ -> Alcotest.fail "oversized frame not sent bare")
    sent

(* The driver unrolls a container into one [on_frame] per good inner
   frame and counts the malformed one. [on_frame] borrows each frame,
   so the test keeps copies. *)
let driver_unrolls () =
  let engine = Ba_sim.Engine.create ~seed:1 () in
  let rx = loopback_sock () and tx = loopback_sock () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rx;
      Unix.close tx)
    (fun () ->
      let seen = ref [] in
      let drv =
        Ba_transport.Driver.create ~engine ~sock:rx ~tick_us:200
          ~on_frame:(fun f _ -> seen := copy_frame f :: !seen)
          ()
      in
      let frames =
        List.init 5 (fun i -> Codec.Data (Wire.make_data_e ~epoch:0 ~seq:i ~payload:"abc"))
      in
      let b = Codec.Batch { frames; malformed = 0 } in
      let buf, len = encode_fresh b in
      break_inner buf (inner_offset frames 2) (List.nth frames 2) 0;
      ignore (Unix.sendto tx buf 0 len [] (Unix.getsockname rx));
      let stopped =
        Ba_transport.Driver.run ~deadline_s:2. ~stop:(fun () -> List.length !seen >= 4) [ drv ]
      in
      check Alcotest.bool "frames arrived" true stopped;
      check Alcotest.bool "every good frame, in order, none a container" true
        (List.for_all2 frame_eq (List.rev !seen) (List.filteri (fun i _ -> i <> 2) frames));
      check Alcotest.int "one datagram" 1 (Ba_transport.Driver.rx_datagrams drv);
      check Alcotest.int "one decode error" 1 (Ba_transport.Driver.decode_errors drv))

(* ------------------------------------------------------------------ *)
(* Driver: counted allocation of the socket loop *)

let with_socks n f =
  let socks = List.init n (fun _ -> loopback_sock ()) in
  Fun.protect ~finally:(fun () -> List.iter Unix.close socks) (fun () -> f socks)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

(* Wait until [sock] has a datagram queued, outside any measurement. *)
let await sock = ignore (Unix.select [ sock ] [] [] 2.)

let drain_empty_allocates_nothing () =
  with_socks 1 (fun socks ->
      let sock = List.hd socks in
      let drv =
        Ba_transport.Driver.create ~engine:(Ba_sim.Engine.create ()) ~sock ~tick_us:200
          ~on_frame:(fun _ _ -> ())
          ()
      in
      Ba_transport.Driver.drain drv;
      let words =
        minor_words (fun () ->
            for _ = 1 to 1_000 do
              Ba_transport.Driver.drain drv
            done)
      in
      check Alcotest.int "1,000 drains of an empty socket: 0 words" 0 words)

(* Each turn drains both sockets and waits; a slot re-armed every 1 us
   tick keeps each wait's timeout within one tick, so the turns come
   fast. The turns a run makes beyond the first ten cost nothing. *)
let loop_turn_allocates_nothing () =
  with_socks 2 (fun socks ->
      let drivers =
        List.map
          (fun sock ->
            let engine = Ba_sim.Engine.create () in
            let slot = ref Ba_sim.Engine.no_slot in
            slot :=
              Ba_sim.Engine.slot_create engine (fun () ->
                  Ba_sim.Engine.slot_arm engine !slot ~delay:1);
            Ba_sim.Engine.slot_arm engine !slot ~delay:1;
            Ba_transport.Driver.create ~engine ~sock ~tick_us:1 ~on_frame:(fun _ _ -> ()) ())
          socks
      in
      let run turns =
        let n = ref 0 in
        let stop () =
          incr n;
          !n >= turns
        in
        minor_words (fun () -> ignore (Ba_transport.Driver.run ~deadline_s:10. ~stop drivers))
      in
      ignore (run 10);
      let few = run 10 and many = run 1_010 in
      check Alcotest.int "1,000 more turns: 0 more words" 0 (many - few))

(* One datagram from the previous sender costs the payload copy and
   nothing else; the sender's address is the cached one while the
   sender repeats, and a new sender's is its own. *)
let receive_allocates_payload_only () =
  with_socks 3 (fun socks ->
      let rx, a, b = match socks with [ r; a; b ] -> (r, a, b) | _ -> assert false in
      let froms = ref [] in
      let drv =
        Ba_transport.Driver.create ~engine:(Ba_sim.Engine.create ()) ~sock:rx ~tick_us:200
          ~on_frame:(fun _ from -> froms := from :: !froms)
          ()
      in
      let buf = Bytes.create Codec.max_datagram in
      let send from i =
        let len =
          Codec.encode_data buf (Wire.make_data_e ~epoch:1 ~seq:i ~payload:(String.make 16 'p'))
        in
        ignore (Unix.sendto from buf 0 len [] (Unix.getsockname rx));
        await rx
      in
      send a 0;
      Ba_transport.Driver.drain drv;
      send a 1;
      (* [on_frame]'s own cons cell is the test's, not the driver's. *)
      let cons = 3 in
      let words = minor_words (fun () -> Ba_transport.Driver.drain drv) in
      check Alcotest.int "one 16 B datagram: its payload copy" (string_words 16) (words - cons);
      send b 2;
      Ba_transport.Driver.drain drv;
      match !froms with
      | [ from_b; from_a'; from_a ] ->
          check Alcotest.bool "repeat sender: the cached address" true (from_a' == from_a);
          check Alcotest.bool "first sender's address" true (from_a = Unix.getsockname a);
          check Alcotest.bool "new sender's address" true (from_b = Unix.getsockname b)
      | l -> Alcotest.failf "%d frames arrived, want 3" (List.length l))

(* ------------------------------------------------------------------ *)
(* Ack merging: the one coalescing rule and the server that applies it *)

let ack ?(epoch = 0) lo hi = Wire.make_ack_e ~epoch ~lo ~hi

let extends ?(modulus = Some 32) ?(cap = 16) ?(epoch = 0) (lo, hi) a =
  Wire.ack_extends ~wire_modulus:modulus ~cap ~lo ~hi ~epoch a

let extends_wraps () =
  check Alcotest.bool "[30,31] + [0,0] at modulus 32" true (extends (30, 31) (ack 0 0));
  check Alcotest.int "merged [30,0] covers three numbers" 3
    (Blockack.Seqcodec.span
       (Blockack.Seqcodec.create ~window:16 ~wire_modulus:(Some 32))
       ~lo:30 ~hi:0);
  check Alcotest.bool "unbounded numbers: [4,6] + [7,9]" true
    (extends ~modulus:None (4, 6) (ack 7 9))

let extends_refuses () =
  check Alcotest.bool "different epoch" false (extends ~epoch:0 (3, 5) (ack ~epoch:1 6 6));
  check Alcotest.bool "resync POS" false (extends (3, 5) (Wire.make_sync_pos ~epoch:0 ~pos:6));
  check Alcotest.bool "gap" false (extends (3, 5) (ack 7 7));
  check Alcotest.bool "overlap (a re-ack)" false (extends (3, 5) (ack 5 5));
  check Alcotest.bool "span exactly the cap" true (extends (0, 10) (ack 11 15));
  check Alcotest.bool "span one over the cap" false (extends (0, 10) (ack 11 16));
  check Alcotest.bool "cap counts across the wrap" false (extends (20, 31) (ack 0 4))

(* A server whose receiver half is driven by hand: [script] calls the
   [tx] the server handed the protocol, and every datagram the server
   puts out is decoded into [sent] (oldest first). *)
let scripted_server ?(window = 16) base =
  let module Base = (val base : Ba_proto.Protocol.S) in
  let tx_ref = ref (fun (_ : Wire.ack) -> ()) in
  let module Scripted = struct
    include Base

    let create_receiver engine config ~tx ~deliver =
      tx_ref := tx;
      Base.create_receiver engine config ~tx ~deliver
  end in
  let engine = Ba_sim.Engine.create ~seed:1 () in
  let sent = ref [] in
  let config = Ba_proto.Proto_config.make ~window ~wire_modulus:(Some (2 * window)) () in
  let srv =
    Endpoint.Server.create ~engine ~protocol:(module Scripted) ~config ~messages:1000
      ~payload_size:16 ~wseed:1
      ~send:(fun _ buf len ->
        match Codec.decode buf ~len with
        | Ok (Codec.Ack a) -> sent := a :: !sent
        | Ok (Codec.Data _ | Codec.Batch _) | Error _ -> Alcotest.fail "server sent a non-ack")
      ()
  in
  (* Any arrival teaches the server its peer. *)
  Endpoint.Server.on_frame srv (Codec.Ack (ack 0 0)) (Unix.ADDR_INET (Unix.inet_addr_loopback, 9));
  let script acks = List.iter (fun a -> !tx_ref a) acks in
  (engine, srv, script, fun () -> List.rev !sent)

let range = Alcotest.(list (pair (pair int int) int))
let ranges = List.map (fun (a : Wire.ack) -> ((a.Wire.lo, a.Wire.hi), a.Wire.epoch))

let server_merges_a_drain () =
  let engine, srv, script, sent = scripted_server Blockack.Protocols.multi in
  script [ ack 30 31; ack 0 0; ack 1 3 ];
  check range "held until the drain ends" [] (ranges (sent ()));
  Ba_sim.Engine.run engine;
  check range "one datagram for the drain" [ ((30, 3), 0) ] (ranges (sent ()));
  check Alcotest.int "acks_sent counts datagrams" 1 (Endpoint.Server.acks_sent srv);
  check Alcotest.bool "the merged ack's checksum is valid" true
    (List.for_all (fun a -> a.Wire.akind = Wire.Ack && Wire.ack_ok a) (sent ()))

let server_flushes_first () =
  let engine, _, script, sent = scripted_server Blockack.Protocols.multi in
  script [ ack 4 4; ack ~epoch:1 5 5 ];
  check range "an epoch change flushes the held range first" [ ((4, 4), 0) ] (ranges (sent ()));
  script [ Wire.make_sync_pos ~epoch:1 ~pos:6 ];
  check Alcotest.(list bool) "a POS flushes the held range, then goes out itself"
    [ false; false; true ]
    (List.map (fun a -> a.Wire.akind = Wire.Sync_pos) (sent ()));
  script [ ack ~epoch:1 7 7; ack ~epoch:1 9 9 ];
  check Alcotest.int "a gap flushes the held range" 4 (List.length (sent ()));
  Ba_sim.Engine.run engine;
  check range "in emission order"
    [ ((4, 4), 0); ((5, 5), 1); ((6, 6), 1); ((7, 7), 1); ((9, 9), 1) ]
    (ranges (sent ()))

let server_caps_span () =
  let engine, _, script, sent = scripted_server Blockack.Protocols.multi in
  script (List.init 40 (fun k -> ack (k mod 32) (k mod 32)));
  Ba_sim.Engine.run engine;
  check range "merged spans never exceed the window"
    [ ((0, 15), 0); ((16, 31), 0); ((0, 7), 0) ]
    (ranges (sent ()))

let server_passes_single_acks () =
  let engine, srv, script, sent = scripted_server Ba_baselines.Go_back_n.protocol in
  let acks = [ ack 0 0; ack 1 1; ack 2 2 ] in
  script acks;
  Ba_sim.Engine.run engine;
  check range "one datagram per ack, unmerged" [ ((0, 0), 0); ((1, 1), 0); ((2, 2), 0) ]
    (ranges (sent ()));
  check Alcotest.int "acks_sent" 3 (Endpoint.Server.acks_sent srv)

(* The sender side of the paper's action 2, over wire numbers: decode
   every number in the block against [na], mark the fresh ones, slide
   [na] over the marked prefix. Returns the marked sequence numbers. *)
let sender_marks ~n ~na ~ns acks =
  let marked = Array.make (ns - na) false in
  let na = ref na and base = na in
  List.iter
    (fun (a : Wire.ack) ->
      let count = Ba_util.Modseq.distance ~n a.Wire.lo a.Wire.hi + 1 in
      for k = 0 to count - 1 do
        let seq = Ba_util.Modseq.reconstruct ~n ~ref_:!na (Ba_util.Modseq.add ~n a.Wire.lo k) in
        if seq >= !na && seq < ns then marked.(seq - base) <- true
      done;
      while !na < ns && marked.(!na - base) do
        incr na
      done)
    acks;
  List.filter (fun s -> marked.(s - base)) (List.init (ns - base) (fun i -> base + i))

(* Merge a stream the way the server does, with one final flush. *)
let merge_stream ~n ~w acks =
  let flush held out = match held with Some (lo, hi) -> ack lo hi :: out | None -> out in
  let held, out =
    List.fold_left
      (fun (held, out) a ->
        match held with
        | Some (lo, hi) when extends ~modulus:(Some n) ~cap:w (lo, hi) a -> (Some (lo, a.Wire.hi), out)
        | _ -> (Some (a.Wire.lo, a.Wire.hi), flush held out))
      (None, []) acks
  in
  List.rev (flush held out)

(* Streams a receiver can emit: the sender has [na, ns) outstanding
   ([ns - na <= w]); the receiver is at [nr >= na] (acks for [na, nr)
   were lost) and emits in-order blocks from [nr] up to [ns] and
   re-acks of numbers it already accepted, no older than a window
   behind [na]. *)
let ack_stream_gen =
  QCheck.Gen.(
    let* w = int_range 1 16 in
    let n = 2 * w in
    let* na = int_bound 200 in
    let* out = int_range 1 w in
    let ns = na + out in
    let* nr0 = int_range na ns in
    let* steps = list_size (int_bound 30) (pair (int_bound 3) (int_bound 1000)) in
    let _, acks =
      List.fold_left
        (fun (nr, acc) (kind, r) ->
          if kind > 0 && nr < ns then
            let hi = nr + (r mod min 4 (ns - nr)) in
            (hi + 1, (nr, hi) :: acc)
          else
            let oldest = max 0 (na - w) in
            if nr > oldest then
              let v = oldest + (r mod (nr - oldest)) in
              (nr, (v, v) :: acc)
            else (nr, acc))
        (nr0, []) steps
    in
    let wire v = v mod n in
    return (w, n, na, ns, List.rev_map (fun (lo, hi) -> ack (wire lo) (wire hi)) acks))

let ack_stream =
  QCheck.make
    ~print:(fun (w, n, na, ns, acks) ->
      Printf.sprintf "w=%d n=%d na=%d ns=%d acks=%s" w n na ns
        (String.concat " " (List.map (fun a -> Format.asprintf "%a" Wire.pp_ack a) acks)))
    ack_stream_gen

let merge_preserves_marks =
  QCheck.Test.make ~name:"merging never changes which numbers the sender marks" ~count:1000
    ack_stream (fun (w, n, na, ns, acks) ->
      let merged = merge_stream ~n ~w acks in
      List.length merged <= List.length acks
      && sender_marks ~n ~na ~ns acks = sender_marks ~n ~na ~ns merged)

(* The server's hold is the model: a drain of any such stream leaves as
   exactly the ranges [merge_stream] computes. The server hands each ack
   back to the frame pool, so it gets copies. *)
let server_merges_like_model =
  QCheck.Test.make ~name:"the server sends the model's merged ranges" ~count:300 ack_stream
    (fun (w, n, _, _, acks) ->
      let want = ranges (merge_stream ~n ~w acks) in
      let engine, _, script, sent = scripted_server ~window:w Blockack.Protocols.multi in
      script (List.map (fun (a : Wire.ack) -> ack a.Wire.lo a.Wire.hi) acks);
      Ba_sim.Engine.run engine;
      ranges (sent ()) = want)

(* Loopback: a clean blockack transfer is acknowledged per drain, not
   per frame, and the client packs each pumped burst of data frames into
   one datagram; go-back-n's single-number acks pass through
   one-for-one. *)
let loopback_merges_acks () =
  let o = pair ~messages:400 "blockack" in
  assert_clean "blockack/merged" o;
  let n = count o in
  Printf.printf "merged pair: %d ack and %d data datagrams for %d messages\n" (n Acks_sent)
    (n Data_datagrams) (n Delivered);
  let per_4 what k =
    if n k * 4 > n Delivered then
      Alcotest.failf "%d %s datagrams for %d messages (want <= 1 per 4)" (n k) what
        (n Delivered)
  in
  per_4 "ack" Acks_sent;
  per_4 "data" Data_datagrams

let loopback_single_acks_unmerged () =
  let module Base = (val Ba_baselines.Go_back_n.protocol : Ba_proto.Protocol.S) in
  let emitted = ref 0 in
  let module Counted = struct
    include Base

    let create_receiver engine config ~tx ~deliver =
      Base.create_receiver engine config
        ~tx:(fun a ->
          incr emitted;
          tx a)
        ~deliver
  end in
  let e = entry "go-back-n" in
  let o =
    Endpoint.Pair.run ~protocol:(module Counted) ~config:(Ba_registry.Registry.config e ())
      ~messages:60 ~payload_size:32 ~wseed:7 ~impair_seed:11 ~network:loopback ()
  in
  assert_clean "go-back-n/counted" o;
  check Alcotest.int "one datagram per emitted ack" !emitted (count o Acks_sent)

(* ------------------------------------------------------------------ *)
(* Driver: zero-delay events fire in the tick that armed them *)

let driver_zero_delay () =
  (* One tick is five seconds, so an event left for the next tick would
     miss the two-second deadline. *)
  let engine = Ba_sim.Engine.create ~seed:1 () in
  let rx = loopback_sock () and tx = loopback_sock () in
  Fun.protect
    ~finally:(fun () ->
      Unix.close rx;
      Unix.close tx)
    (fun () ->
      let fired_at = ref (-1) in
      let drv_ref = ref None in
      let drv =
        Ba_transport.Driver.create ~engine ~sock:rx ~tick_us:5_000_000
          ~on_frame:(fun _ _ ->
            Ba_sim.Engine.schedule engine ~delay:0 (fun () ->
                match !drv_ref with
                | Some d -> fired_at := Ba_transport.Driver.now_ticks d
                | None -> ()))
          ()
      in
      drv_ref := Some drv;
      let buf = Bytes.create Codec.max_datagram in
      let len = Codec.encode buf (Codec.Ack (ack 0 0)) in
      ignore (Unix.sendto tx buf 0 len [] (Unix.getsockname rx));
      let stopped = Ba_transport.Driver.run ~deadline_s:2. ~stop:(fun () -> !fired_at >= 0) [ drv ] in
      check Alcotest.bool "fired before the deadline" true stopped;
      check Alcotest.int "in the tick that armed it" 0 !fired_at)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "net"
    [
      ( "codec",
        [
          qcheck roundtrip;
          qcheck roundtrip_checksum;
          Alcotest.test_case "exact buffer sizes" `Quick exact_buffer;
          qcheck never_raises_random;
          qcheck rejects_truncation;
          qcheck never_raises_bitflips;
          Alcotest.test_case "padding rejected" `Quick rejects_padding;
          qcheck batch_roundtrip;
          qcheck batch_never_raises_random;
          qcheck batch_rejects_truncation;
          qcheck batch_never_raises_bitflips;
          qcheck batch_isolates_malformed;
          Alcotest.test_case "container encode rules" `Quick batch_encode_rules;
          qcheck in_place_agrees;
          Alcotest.test_case "in-place parse allocates only payloads" `Quick in_place_allocation;
        ] );
      ( "packer",
        [
          Alcotest.test_case "one datagram per pumped window" `Quick packer_one_datagram;
          Alcotest.test_case "containers capped, big frames alone" `Quick packer_caps_container;
          Alcotest.test_case "driver unrolls a container" `Quick driver_unrolls;
          Alcotest.test_case "go-back-n client survives its watchdog" `Quick
            client_without_lifecycle_survives_watchdog;
          Alcotest.test_case "pull_wall of a negative index" `Quick pull_wall_negative_index;
        ] );
      ( "shim",
        [
          Alcotest.test_case "seeded replay is exact" `Quick shim_replay;
          Alcotest.test_case "quarantine gate" `Quick shim_gate;
        ] );
      ( "loopback",
        [
          Alcotest.test_case "blockack clean link" `Quick loopback_clean;
          Alcotest.test_case "bytes per message on a clean pair" `Quick
            loopback_alloc_per_message;
          Alcotest.test_case "state per connection" `Quick loopback_state_per_connection;
          Alcotest.test_case "blockack under 5% loss" `Quick loopback_impaired;
          Alcotest.test_case "go-back-n clean link" `Quick loopback_baseline;
          Alcotest.test_case "a latency sample per message" `Quick loopback_latency_per_message;
          Alcotest.test_case "blockack acks once per drain" `Quick loopback_merges_acks;
          Alcotest.test_case "go-back-n acks pass through" `Quick loopback_single_acks_unmerged;
          Alcotest.test_case "blockack loses every 5th datagram" `Quick loopback_datagram_loss;
        ] );
      ( "merge",
        [
          Alcotest.test_case "adjacent across the wrap" `Quick extends_wraps;
          Alcotest.test_case "epoch, POS, gap and cap refuse" `Quick extends_refuses;
          Alcotest.test_case "server sends one datagram per drain" `Quick server_merges_a_drain;
          Alcotest.test_case "server flushes before anything else" `Quick server_flushes_first;
          Alcotest.test_case "server caps the span at the window" `Quick server_caps_span;
          Alcotest.test_case "single-number acks pass through" `Quick server_passes_single_acks;
          qcheck merge_preserves_marks;
          qcheck server_merges_like_model;
        ] );
      ( "driver",
        [
          Alcotest.test_case "zero-delay event fires this tick" `Quick driver_zero_delay;
          Alcotest.test_case "draining an empty socket allocates nothing" `Quick
            drain_empty_allocates_nothing;
          Alcotest.test_case "a loop turn allocates nothing" `Quick loop_turn_allocates_nothing;
          Alcotest.test_case "a datagram allocates only its payload" `Quick
            receive_allocates_payload_only;
        ] );
      ( "virtual",
        [
          Alcotest.test_case "recorded defect: late frames misdecode at modulus 16" `Quick
            recorded_late_frame_misdecode;
          Alcotest.test_case "recorded: late frames under selective repeat and go-back-n" `Quick
            recorded_late_frame_baselines;
        ] );
    ]
