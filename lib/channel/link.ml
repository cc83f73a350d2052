module Counters = Ba_util.Counters

type verdict = Fault_plan.verdict =
  | Deliver
  | Drop
  | Duplicate of int
  | Corrupt
  | Delay of int

(* In-transit messages live in a struct-of-arrays arena of four columns
   (message; tag and releasable flag, as [tag lsl 1 lor rel]; send
   index; extra delay) and are referred to by integer id everywhere: the
   bottleneck queue is a ring of ids and the two event handlers
   ([deliver_ev]/[serve_ev], registered once at [create]) take an id
   through {!Ba_sim.Engine.schedule_fn}. Steady-state sends therefore
   allocate nothing — the old implementation built a [Queue.t] tuple
   plus one closure per delivery. Free entries form a
   stack threaded through their send-index column, so the free list
   costs no column of its own.

   [release] transfers message ownership to the link: a message handed
   to [send] is released exactly once, when it leaves the system
   (delivered, dropped, tail-dropped, or discarded in an outage) —
   except duplicated messages, whose copies alias one value and are
   left to the GC.

   The int columns (and the bottleneck ring) come from
   {!Ba_util.Column_pool} and go back to it when outgrown or at
   [retire]. A retired link's free stack holds the sentinel
   [retired_free], which [send_tagged] refuses. The message column
   grows by appending itself to itself: its new free entries alias
   messages already in it, so the copy neither forces a minor collection
   (as [Array.make] does with a young filler over 256 words) nor makes
   anything reachable that was not. *)

module Columns = Ba_util.Column_pool

let retired_free = -2

type 'a t = {
  engine : Ba_sim.Engine.t;
  loss : float;
  delay : Dist.t;
  mutable bottleneck : (int * int) option;  (* service time, queue capacity *)
  deliver : int -> 'a -> unit;  (* tag, message *)
  corrupt : ('a -> 'a) option;
  release : ('a -> unit) option;
  rng : Ba_util.Rng.t;
  mutable fault : ('a -> verdict) option;
  mutable plan : Fault_plan.instance option;
  mutable deliver_ev : Ba_sim.Engine.handler;  (* propagation arrival *)
  mutable serve_ev : Ba_sim.Engine.handler;  (* bottleneck service completion *)
  (* arena of in-transit messages *)
  mutable ent_msg : 'a array;  (* [||] until the first send supplies a filler *)
  mutable ent_tag : int array;  (* [tag lsl 1 lor 1] when the entry is releasable *)
  mutable ent_idx : int array;  (* send index; for a free entry, the next free id or -1 *)
  mutable ent_extra : int array;
  mutable ent_free : int;  (* top of the free stack, -1 when empty, [retired_free] once retired *)
  (* bottleneck FIFO: ring of arena ids, capacity fixed at create *)
  mutable q_buf : int array;
  mutable q_head : int;
  mutable q_len : int;
  mutable serving : bool;
  mutable in_flight : int;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable queue_dropped : int;
  mutable reordered : int;
  mutable duplicated : int;
  mutable corrupted : int;
  mutable outage_drops : int;
  mutable send_index : int;
  mutable max_delivered_index : int;
}

let rec create_tagged : 'a.
    Ba_sim.Engine.t ->
    ?loss:float ->
    ?delay:Dist.t ->
    ?bottleneck:int * int ->
    ?corrupt:('a -> 'a) ->
    ?release:('a -> unit) ->
    deliver:(int -> 'a -> unit) ->
    unit ->
    'a t =
 fun engine ?(loss = 0.) ?(delay = Dist.Constant 1) ?bottleneck ?corrupt ?release ~deliver () ->
  if loss < 0. || loss > 1. then invalid_arg "Link.create: loss must be in [0,1]";
  (match bottleneck with
  | Some (service, capacity) when service <= 0 || capacity <= 0 ->
      invalid_arg "Link.create: bottleneck needs positive service time and capacity"
  | Some _ | None -> ());
  let rng = Ba_util.Rng.split (Ba_sim.Engine.rng engine) in
  let q_buf = match bottleneck with Some (_, cap) -> Columns.take cap 0 | None -> [||] in
  (* The handlers' closures point at the record itself, not at a lazy
     knot, so what a link reaches does not depend on whether a
     collection has short-circuited a forwarding block yet. *)
  let t =
    {
      engine;
      loss;
      delay;
      bottleneck;
      deliver;
      corrupt;
      release;
      rng;
      fault = None;
      plan = None;
      deliver_ev = Ba_sim.Engine.no_handler;
      serve_ev = Ba_sim.Engine.no_handler;
      ent_msg = [||];
      ent_tag = [||];
      ent_idx = [||];
      ent_extra = [||];
      ent_free = -1;
      q_buf;
      q_head = 0;
      q_len = 0;
      serving = false;
      in_flight = 0;
      sent = 0;
      delivered = 0;
      dropped = 0;
      queue_dropped = 0;
      reordered = 0;
      duplicated = 0;
      corrupted = 0;
      outage_drops = 0;
      send_index = 0;
      max_delivered_index = -1;
    }
  in
  t.deliver_ev <- Ba_sim.Engine.handler engine (fun id -> on_arrival t id);
  t.serve_ev <- Ba_sim.Engine.handler engine (fun id -> on_served t id);
  t

(* ---- arena ---- *)

and alloc_entry : 'a. 'a t -> 'a -> int -> int -> int -> bool -> int =
 fun t msg tag index extra rel ->
  if t.ent_free < 0 then begin
    let old = Array.length t.ent_msg in
    let cap = if old = 0 then 16 else 2 * old in
    t.ent_msg <- (if old = 0 then Array.make cap msg else Array.append t.ent_msg t.ent_msg);
    t.ent_tag <- Columns.grow t.ent_tag cap 0;
    (* The new entries are free, the lowest on top. *)
    let ix = Columns.grow t.ent_idx cap 0 in
    for i = old to cap - 2 do
      ix.(i) <- i + 1
    done;
    ix.(cap - 1) <- -1;
    t.ent_idx <- ix;
    t.ent_extra <- Columns.grow t.ent_extra cap 0;
    t.ent_free <- old
  end;
  let id = t.ent_free in
  t.ent_free <- t.ent_idx.(id);
  t.ent_msg.(id) <- msg;
  t.ent_tag.(id) <- (tag lsl 1) lor Bool.to_int rel;
  t.ent_idx.(id) <- index;
  t.ent_extra.(id) <- extra;
  id

and free_entry : 'a. 'a t -> int -> unit =
 fun t id ->
  t.ent_idx.(id) <- t.ent_free;
  t.ent_free <- id

(* ---- delivery pipeline ---- *)

(* Propagation stage: the per-message random delay after any queueing. *)
and propagate : 'a. 'a t -> int -> unit =
 fun t id ->
  t.in_flight <- t.in_flight + 1;
  let delay = Dist.sample t.delay t.rng + t.ent_extra.(id) in
  Ba_sim.Engine.schedule_fn t.engine ~delay t.deliver_ev id

and on_arrival : 'a. 'a t -> int -> unit =
 fun t id ->
  t.in_flight <- t.in_flight - 1;
  t.delivered <- t.delivered + 1;
  let index = t.ent_idx.(id) in
  if index < t.max_delivered_index then t.reordered <- t.reordered + 1
  else t.max_delivered_index <- index;
  let msg = t.ent_msg.(id) in
  let tag = t.ent_tag.(id) in
  free_entry t id;
  t.deliver (tag asr 1) msg;
  if tag land 1 = 1 then match t.release with Some r -> r msg | None -> ()

and serve_next : 'a. 'a t -> int -> unit =
 fun t service_time ->
  if t.q_len = 0 then t.serving <- false
  else begin
    let cap = Array.length t.q_buf in
    let id = t.q_buf.(t.q_head) in
    t.q_head <- (t.q_head + 1) mod cap;
    t.q_len <- t.q_len - 1;
    t.serving <- true;
    Ba_sim.Engine.schedule_fn t.engine ~delay:service_time t.serve_ev id
  end

and on_served : 'a. 'a t -> int -> unit =
 fun t id ->
  propagate t id;
  match t.bottleneck with
  | Some (service_time, _) -> serve_next t service_time
  | None -> ()

let create engine ?loss ?delay ?bottleneck ?corrupt ?release ~deliver () =
  create_tagged engine ?loss ?delay ?bottleneck ?corrupt ?release
    ~deliver:(fun _ msg -> deliver msg)
    ()

let maybe_release t msg = match t.release with Some r -> r msg | None -> ()

(* One surviving copy enters the (optional) bottleneck and then the
   propagation stage. *)
let admit t msg tag index extra rel =
  match t.bottleneck with
  | None -> propagate t (alloc_entry t msg tag index extra rel)
  | Some (service_time, capacity) ->
      if t.q_len >= capacity then begin
        t.queue_dropped <- t.queue_dropped + 1;
        if rel then maybe_release t msg
      end
      else begin
        let id = alloc_entry t msg tag index extra rel in
        t.q_buf.((t.q_head + t.q_len) mod capacity) <- id;
        t.q_len <- t.q_len + 1;
        if not t.serving then serve_next t service_time
      end

let send_tagged t tag msg =
  if tag < 0 || tag > max_int asr 1 then invalid_arg "Link.send_tagged: tag out of range";
  if t.ent_free = retired_free then invalid_arg "Link.send_tagged: link used after retire";
  t.sent <- t.sent + 1;
  let index = t.send_index in
  t.send_index <- t.send_index + 1;
  let in_outage =
    match t.plan with
    | Some inst -> Fault_plan.in_outage (Fault_plan.plan inst) ~now:(Ba_sim.Engine.now t.engine)
    | None -> false
  in
  if in_outage then begin
    t.outage_drops <- t.outage_drops + 1;
    maybe_release t msg
  end
  else begin
    (* The scripted hook takes precedence; the plan fills in when the
       hook passes. Independent Bernoulli loss applies on top of both. *)
    let verdict =
      match t.fault with
      | Some f -> (
          match f msg with
          | Deliver -> ( match t.plan with Some inst -> Fault_plan.decide inst | None -> Deliver)
          | v -> v)
      | None -> ( match t.plan with Some inst -> Fault_plan.decide inst | None -> Deliver)
    in
    if Ba_util.Rng.bernoulli t.rng t.loss then begin
      t.dropped <- t.dropped + 1;
      maybe_release t msg
    end
    else
      match verdict with
      | Drop ->
          t.dropped <- t.dropped + 1;
          maybe_release t msg
      | Deliver -> admit t msg tag index 0 true
      | Delay extra -> admit t msg tag index (max 0 extra) true
      | Duplicate copies ->
          let copies = max 1 copies in
          t.duplicated <- t.duplicated + (copies - 1);
          (* The copies alias one value, so none is individually
             releasable; the GC reclaims it after the last arrival. *)
          for _ = 1 to copies do
            admit t msg tag index 0 false
          done
      | Corrupt ->
          t.corrupted <- t.corrupted + 1;
          let mangled = match t.corrupt with Some f -> f msg | None -> msg in
          if mangled != msg then maybe_release t msg;
          admit t mangled tag index 0 true
  end

let send t msg = send_tagged t 0 msg

let set_fault t f = t.fault <- Some f
let clear_fault t = t.fault <- None

let set_plan t plan = t.plan <- Some (Fault_plan.instantiate plan ~rng:(Ba_util.Rng.split t.rng))

let backlog t = t.q_len + if t.serving then 1 else 0
let in_flight t = t.in_flight + backlog t
let queue_length t = t.q_len

(* Every service completion starts one propagation, and each propagating
   message either is still in flight or has arrived. *)
let served t = t.delivered + t.in_flight

let set_service t service =
  match t.bottleneck with
  | Some (_, capacity) when service > 0 -> t.bottleneck <- Some (service, capacity)
  | Some _ -> invalid_arg "Link.set_service: service time must be positive"
  | None -> invalid_arg "Link.set_service: link has no bottleneck"

let max_delay t = Dist.max_delay t.delay

let counters t =
  let b = Counters.create () in
  Counters.add b Offered t.sent;
  Counters.add b Passed t.delivered;
  Counters.add b Lost t.dropped;
  Counters.add b Queue_dropped t.queue_dropped;
  Counters.add b Reordered t.reordered;
  Counters.add b Duplicated t.duplicated;
  Counters.add b Mangled t.corrupted;
  Counters.add b Outage_drops t.outage_drops;
  b

let retire t =
  if t.ent_free <> retired_free then begin
    List.iter Columns.give [ t.ent_tag; t.ent_idx; t.ent_extra; t.q_buf ];
    t.ent_msg <- [||];
    t.ent_tag <- [||];
    t.ent_idx <- [||];
    t.ent_extra <- [||];
    t.q_buf <- [||];
    t.ent_free <- retired_free
  end
