type side = Sender | Receiver

type event = { time : int; side : side; label : string }

type t = { mutable log : event list; mutable count : int; mutable dropped : int; capacity : int }

let create ?(capacity = 10_000) () = { log = []; count = 0; dropped = 0; capacity }

let record t ~time ~side label =
  t.log <- { time; side; label } :: t.log;
  t.count <- t.count + 1;
  if t.count > t.capacity then begin
    (* Drop the oldest half to amortise the cost of truncation. *)
    let keep = t.capacity / 2 in
    t.log <- List.filteri (fun i _ -> i < keep) t.log;
    t.dropped <- t.dropped + t.count - keep;
    t.count <- keep
  end

let events t = List.rev t.log
let dropped t = t.dropped

let clear t =
  t.log <- [];
  t.count <- 0;
  t.dropped <- 0

let protocol t (module P : Ba_proto.Protocol.S) : Ba_proto.Protocol.t =
  let open Ba_proto.Wire in
  let now = ref (fun () -> 0) in
  let note side fmt = Printf.ksprintf (fun label -> record t ~time:(!now ()) ~side label) fmt in
  (module struct
    include P

    let create_sender engine config ~tx ~next_payload =
      now := (fun () -> Ba_sim.Engine.now engine);
      P.create_sender engine config ~next_payload ~tx:(fun d ->
          note Sender "DATA %d ->" d.seq;
          tx d)

    let create_receiver engine config ~tx ~deliver =
      now := (fun () -> Ba_sim.Engine.now engine);
      P.create_receiver engine config
        ~tx:(fun a ->
          note Receiver "<- ACK (%d,%d)" a.lo a.hi;
          tx a)
        ~deliver:(fun p ->
          note Receiver "deliver %S" p;
          deliver p)

    let sender_on_ack s a =
      note Sender "ACK (%d,%d) <-" a.lo a.hi;
      P.sender_on_ack s a

    let receiver_on_data r d =
      note Receiver "-> DATA %d" d.seq;
      P.receiver_on_data r d
  end)

let render ?(from_time = 0) ?(until_time = max_int) t =
  let selected =
    List.filter (fun e -> e.time >= from_time && e.time <= until_time) (events t)
  in
  let col_width =
    List.fold_left (fun acc e -> max acc (String.length e.label)) 8 selected + 2
  in
  let pad s = s ^ String.make (col_width - String.length s) ' ' in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%8s | %s| %s\n" "tick" (pad "sender") "receiver");
  Buffer.add_string buf
    (Printf.sprintf "%s-+-%s+-%s\n" (String.make 8 '-') (String.make col_width '-')
       (String.make col_width '-'));
  if t.dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "%8s | %d earlier events dropped (the tracer keeps at most %d)\n" "..."
         t.dropped t.capacity);
  List.iter
    (fun e ->
      let left, right =
        match e.side with Sender -> (pad e.label, "") | Receiver -> (pad "", e.label)
      in
      Buffer.add_string buf (Printf.sprintf "%8d | %s| %s\n" e.time left right))
    selected;
  Buffer.contents buf
