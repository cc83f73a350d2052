(* Span recorder for the traced pass.

   Spans are taken from outside the program, around calls into each
   layer's public functions: [Timed] wraps a protocol's entry points and
   the callbacks a driver hands it, and the workloads wrap the callbacks
   they hand the drivers themselves. Self time comes from a span stack:
   a span's duration minus the durations of the spans opened while it
   was on top, so the self times of all spans sum exactly to the time
   spent inside top-level spans. One domain only: the state is global. *)

type boundary =
  | Sender_on_ack
  | Receiver_on_data
  | Endpoint_create
  | Next_payload
  | Flow_deliver
  | Shard_deliver
  | Link_send_data
  | Link_send_ack
  | Net_tx
  | Net_deliver
  | Net_send_to
  | Net_on_frame

let boundaries =
  [
    Sender_on_ack;
    Receiver_on_data;
    Endpoint_create;
    Next_payload;
    Flow_deliver;
    Shard_deliver;
    Link_send_data;
    Link_send_ack;
    Net_tx;
    Net_deliver;
    Net_send_to;
    Net_on_frame;
  ]

let name = function
  | Sender_on_ack -> "core.sender.on_ack"
  | Receiver_on_data -> "core.receiver.on_data"
  | Endpoint_create -> "core.endpoint.create"
  | Next_payload -> "proto.workload.next_payload"
  | Flow_deliver -> "proto.flow.deliver"
  | Shard_deliver -> "proto.shard.deliver"
  | Link_send_data -> "channel.link.send_data"
  | Link_send_ack -> "channel.link.send_ack"
  | Net_tx -> "net.endpoint.tx"
  | Net_deliver -> "net.endpoint.deliver"
  | Net_send_to -> "net.driver.send_to"
  | Net_on_frame -> "net.endpoint.on_frame"

let index = function
  | Sender_on_ack -> 0
  | Receiver_on_data -> 1
  | Endpoint_create -> 2
  | Next_payload -> 3
  | Flow_deliver -> 4
  | Shard_deliver -> 5
  | Link_send_data -> 6
  | Link_send_ack -> 7
  | Net_tx -> 8
  | Net_deliver -> 9
  | Net_send_to -> 10
  | Net_on_frame -> 11

let count = List.length boundaries
let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Per-boundary totals. *)
let calls = Array.make count 0
let incl_ns = Array.make count 0
let self_ns = Array.make count 0

(* The open spans, innermost last. *)
let max_depth = 64
let st_index = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_id = Array.make max_depth 0
let depth = ref 0
let top_ns = ref 0
let next_id = ref 0
let op = ref 0

(* The first [raw_cap] closed spans, kept verbatim for the span file. *)
let raw_cap = 50_000
let raw_id = Array.make raw_cap 0
let raw_parent = Array.make raw_cap 0
let raw_index = Array.make raw_cap 0
let raw_op = Array.make raw_cap 0
let raw_start = Array.make raw_cap 0
let raw_end = Array.make raw_cap 0
let raw_len = ref 0

let enter b =
  let d = !depth in
  if d = max_depth then failwith "Trace: spans nested too deep";
  st_index.(d) <- index b;
  st_child.(d) <- 0;
  st_id.(d) <- !next_id;
  incr next_id;
  depth := d + 1;
  st_start.(d) <- now_ns ()

let leave () =
  let t = now_ns () in
  let d = !depth - 1 in
  depth := d;
  let i = st_index.(d) in
  let dur = t - st_start.(d) in
  calls.(i) <- calls.(i) + 1;
  incl_ns.(i) <- incl_ns.(i) + dur;
  self_ns.(i) <- self_ns.(i) + dur - st_child.(d);
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur else top_ns := !top_ns + dur;
  let n = !raw_len in
  if n < raw_cap then begin
    raw_id.(n) <- st_id.(d);
    raw_parent.(n) <- (if d > 0 then st_id.(d - 1) else -1);
    raw_index.(n) <- i;
    raw_op.(n) <- !op;
    raw_start.(n) <- st_start.(d);
    raw_end.(n) <- t;
    raw_len := n + 1
  end

let span b f x =
  enter b;
  match f x with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

let span2 b f x y =
  enter b;
  match f x y with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

let span3 b f x y z =
  enter b;
  match f x y z with
  | v ->
      leave ();
      v
  | exception e ->
      leave ();
      raise e

(* Which boundary a protocol's callbacks report to: the simulated
   drivers hand it link senders and a delivery checker, the UDP
   endpoints an encoder and their own checker. *)
module type CALLBACKS = sig
  val data_tx : boundary
  val ack_tx : boundary
  val deliver : boundary
end

module Timed (C : CALLBACKS) (P : Ba_proto.Protocol.S) : Ba_proto.Protocol.S = struct
  include P

  let create_sender engine config ~tx ~next_payload =
    let tx d = span C.data_tx tx d and next_payload () = span Next_payload next_payload () in
    span Endpoint_create (fun () -> P.create_sender engine config ~tx ~next_payload) ()

  let create_receiver engine config ~tx ~deliver =
    let tx a = span C.ack_tx tx a and deliver p = span C.deliver deliver p in
    span Endpoint_create (fun () -> P.create_receiver engine config ~tx ~deliver) ()

  let sender_on_ack s a = span2 Sender_on_ack P.sender_on_ack s a
  let receiver_on_data r d = span2 Receiver_on_data P.receiver_on_data r d
end

let timed (module C : CALLBACKS) (module P : Ba_proto.Protocol.S) : Ba_proto.Protocol.t =
  (module Timed (C) (P))

(* Run one traced op: returns its wall time and the part of it spent
   outside every top-level span (the driver's own work). *)
let run_op f =
  incr op;
  let top0 = !top_ns in
  let t0 = now_ns () in
  let v = f () in
  let wall = now_ns () - t0 in
  (v, wall, wall - (!top_ns - top0))

let write_spans oc ~workload =
  let names = Array.of_list (List.map name boundaries) in
  for n = 0 to !raw_len - 1 do
    Printf.fprintf oc
      "{\"workload\":%S,\"op\":%d,\"span\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\
       \"end_ns\":%d}\n"
      workload raw_op.(n) raw_id.(n) raw_parent.(n) names.(raw_index.(n)) raw_start.(n) raw_end.(n)
  done
