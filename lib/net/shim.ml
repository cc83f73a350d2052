module Counters = Ba_util.Counters

type t = {
  engine : Ba_sim.Engine.t;
  instance : Ba_channel.Fault_plan.instance option;
  plan : Ba_channel.Fault_plan.t;
  rng : Ba_util.Rng.t;  (* corruption positions; separate stream from the verdicts *)
  transmit : Bytes.t -> int -> unit;
  mutable closed : bool;
  mutable offered : int;
  mutable passed : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable delayed : int;
  mutable outage_drops : int;
  mutable gated : int;
}

let create engine ?plan ~seed ~transmit () =
  let rng = Ba_util.Rng.create seed in
  let instance =
    Option.map (fun p -> Ba_channel.Fault_plan.instantiate p ~rng:(Ba_util.Rng.split rng)) plan
  in
  {
    engine;
    instance;
    plan = Option.value plan ~default:Ba_channel.Fault_plan.none;
    rng;
    transmit;
    closed = false;
    offered = 0;
    passed = 0;
    dropped = 0;
    duplicated = 0;
    corrupted = 0;
    delayed = 0;
    outage_drops = 0;
    gated = 0;
  }

let pass t buf len =
  if t.closed then t.gated <- t.gated + 1
  else begin
    t.passed <- t.passed + 1;
    t.transmit buf len
  end

(* Flip one bit of a copy, never the length-critical header prefix: a
   mangled magic byte would just vanish at the decoder, whereas the
   interesting corruption is the one only the frame checksum catches. *)
let corrupt_copy t buf len =
  let copy = Bytes.sub buf 0 len in
  let pos = if len > 4 then 4 + Ba_util.Rng.int t.rng (len - 4) else Ba_util.Rng.int t.rng len in
  Bytes.set_uint8 copy pos (Bytes.get_uint8 copy pos lxor (1 lsl Ba_util.Rng.int t.rng 8));
  copy

let send t buf len =
  t.offered <- t.offered + 1;
  if t.closed then t.gated <- t.gated + 1
  else if Ba_channel.Fault_plan.in_outage t.plan ~now:(Ba_sim.Engine.now t.engine) then
    t.outage_drops <- t.outage_drops + 1
  else
    match t.instance with
    | None -> pass t buf len
    | Some i -> (
        match Ba_channel.Fault_plan.decide i with
        | Ba_channel.Fault_plan.Deliver -> pass t buf len
        | Ba_channel.Fault_plan.Drop -> t.dropped <- t.dropped + 1
        | Ba_channel.Fault_plan.Duplicate n ->
            t.duplicated <- t.duplicated + (n - 1);
            for _ = 1 to n do
              pass t buf len
            done
        | Ba_channel.Fault_plan.Corrupt ->
            if len = 0 then pass t buf len
            else begin
              t.corrupted <- t.corrupted + 1;
              let copy = corrupt_copy t buf len in
              pass t copy len
            end
        | Ba_channel.Fault_plan.Delay extra ->
            t.delayed <- t.delayed + 1;
            let copy = Bytes.sub buf 0 len in
            Ba_sim.Engine.schedule t.engine ~delay:extra (fun () -> pass t copy len))

let gate t closed = t.closed <- closed

let counters t =
  let b = Counters.create () in
  Counters.add b Offered t.offered;
  Counters.add b Passed t.passed;
  Counters.add b Lost t.dropped;
  Counters.add b Duplicated t.duplicated;
  Counters.add b Mangled t.corrupted;
  Counters.add b Delayed t.delayed;
  Counters.add b Outage_drops t.outage_drops;
  Counters.add b Gated t.gated;
  b
