(* The event queue is one binary heap of three int columns: an entry's
   (time, stamp) orders it, and its key names what to run. The stamp is
   a monotonically increasing insertion counter, so same-tick events
   fire in scheduling order; a stamp may be taken ahead of its push
   ([take_stamp], [slot_arm_keyed]) and keeps its place in that order
   all the same. Every (time, stamp) pair is unique, so the heap pops
   events in one order whatever its internal layout.

   A key is [id lsl tag_bits lor tag]. Tag 0: [id] is a slot, whose
   callback is [sl_fn.(id)]. Tag 1: [id] is a one-shot closure from
   [schedule], parked in [cl_fn.(id)] until it fires. Tags 2 and up name
   a handler from [handler], and [id] is its argument. Every move of a
   slot's entry goes through [place], which records the entry's
   position in [sl_pos], so a slot removes or re-keys its own entry in
   place: nothing dead is ever left in the heap, and arming or firing a
   slot or handler event writes no pointer.

   The int columns come from {!Ba_util.Column_pool} and go back to it
   when they are outgrown or the engine is retired. A retired engine's
   columns are all empty: its heap is the only one of length 0, so every
   scheduling call, which must grow a full heap first, fails there. *)

let tag_bits = 16
let tag_mask = (1 lsl tag_bits) - 1
let tag_slot = 0
let tag_closure = 1

type t = {
  mutable clock : int;
  rng : Ba_util.Rng.t;
  mutable stopping : bool;
  mutable hp_time : int array;
  mutable hp_stamp : int array;
  mutable hp_key : int array;
  mutable hp_len : int;
  mutable stamp : int;  (* next insertion stamp; never reset *)
  (* slots: callback and heap position (-1 when disarmed) *)
  mutable sl_fn : (unit -> unit) array;
  mutable sl_pos : int array;
  mutable sl_len : int;
  (* one-shot closures, with a free-list stack of their ids *)
  mutable cl_fn : (unit -> unit) array;
  mutable cl_free : int array;
  mutable cl_free_len : int;
  (* handlers, indexed by tag; 0 and 1 unused *)
  mutable hd_fn : (int -> unit) array;
  mutable hd_len : int;
}

type slot = int
type handler = int

let no_slot = -1
let no_handler = -1

let ignore_unit () = ()
let ignore_int (_ : int) = ()

module Columns = Ba_util.Column_pool

let create ?(seed = 1) () =
  {
    clock = 0;
    rng = Ba_util.Rng.create seed;
    stopping = false;
    hp_time = Columns.take 16 0;
    hp_stamp = Columns.take 16 0;
    hp_key = Columns.take 16 0;
    hp_len = 0;
    stamp = 0;
    sl_fn = [||];
    sl_pos = [||];
    sl_len = 0;
    cl_fn = [||];
    cl_free = [||];
    cl_free_len = 0;
    hd_fn = Array.make 4 ignore_int;
    hd_len = tag_closure + 1;
  }

let now t = t.clock
let rng t = t.rng

let retired t = Array.length t.hp_time = 0
let check_live t who = if retired t then invalid_arg (who ^ ": engine used after retire")

(* A copy of [a] with room for [cap] entries, the new ones [fill]. *)
let grown a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let take_stamp t =
  let s = t.stamp in
  t.stamp <- s + 1;
  s

(* ---- heap ---- *)

let place t i time stamp key =
  t.hp_time.(i) <- time;
  t.hp_stamp.(i) <- stamp;
  t.hp_key.(i) <- key;
  if key land tag_mask = tag_slot then t.sl_pos.(key lsr tag_bits) <- i

let lt (t1 : int) (s1 : int) (t2 : int) (s2 : int) = t1 < t2 || (t1 = t2 && s1 < s2)

(* Both sifts carry the entry in hand and move the others into the hole
   at [i], writing the entry once where it stops. *)
let rec sift_up t i time stamp key =
  let p = (i - 1) / 2 in
  if i > 0 && lt time stamp t.hp_time.(p) t.hp_stamp.(p) then begin
    place t i t.hp_time.(p) t.hp_stamp.(p) t.hp_key.(p);
    sift_up t p time stamp key
  end
  else place t i time stamp key

let rec sift_down t i time stamp key =
  let l = (2 * i) + 1 in
  if l >= t.hp_len then place t i time stamp key
  else begin
    let r = l + 1 in
    let c =
      if r < t.hp_len && lt t.hp_time.(r) t.hp_stamp.(r) t.hp_time.(l) t.hp_stamp.(l) then r
      else l
    in
    if lt t.hp_time.(c) t.hp_stamp.(c) time stamp then begin
      place t i t.hp_time.(c) t.hp_stamp.(c) t.hp_key.(c);
      sift_down t c time stamp key
    end
    else place t i time stamp key
  end

(* Put an entry into the hole at [i], towards whichever end it belongs. *)
let settle t i time stamp key =
  let p = (i - 1) / 2 in
  if i > 0 && lt time stamp t.hp_time.(p) t.hp_stamp.(p) then sift_up t i time stamp key
  else sift_down t i time stamp key

let push t time stamp key =
  let i = t.hp_len in
  if i = Array.length t.hp_time then begin
    check_live t "Engine.schedule";
    t.hp_time <- Columns.grow t.hp_time (2 * i) 0;
    t.hp_stamp <- Columns.grow t.hp_stamp (2 * i) 0;
    t.hp_key <- Columns.grow t.hp_key (2 * i) 0
  end;
  t.hp_len <- i + 1;
  sift_up t i time stamp key

(* Remove the entry at [i]: the last entry fills its hole. *)
let remove t i =
  let last = t.hp_len - 1 in
  t.hp_len <- last;
  if i < last then settle t i t.hp_time.(last) t.hp_stamp.(last) t.hp_key.(last)

(* ---- one-shot events ---- *)

let schedule_at t ~at action =
  if at < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  if t.cl_free_len = 0 then begin
    check_live t "Engine.schedule_at";
    let old = Array.length t.cl_fn in
    let cap = max 4 (2 * old) in
    t.cl_fn <- grown t.cl_fn cap ignore_unit;
    Columns.give_outgrown t.cl_free;
    let free = Columns.take cap 0 in
    for i = 0 to cap - 1 do
      free.(i) <- cap - 1 - i
    done;
    t.cl_free <- free;
    t.cl_free_len <- cap - old
  end;
  t.cl_free_len <- t.cl_free_len - 1;
  let id = t.cl_free.(t.cl_free_len) in
  t.cl_fn.(id) <- action;
  push t at (take_stamp t) ((id lsl tag_bits) lor tag_closure)

let schedule t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock + delay) action

let handler t fn =
  let tag = t.hd_len in
  check_live t "Engine.handler";
  if tag > tag_mask then invalid_arg "Engine.handler: too many handlers";
  if tag = Array.length t.hd_fn then t.hd_fn <- grown t.hd_fn (2 * tag) ignore_int;
  t.hd_fn.(tag) <- fn;
  t.hd_len <- tag + 1;
  tag

let schedule_fn t ~delay h arg =
  if delay < 0 then invalid_arg "Engine.schedule_fn: negative delay";
  if arg < 0 then invalid_arg "Engine.schedule_fn: negative argument";
  push t (t.clock + delay) (take_stamp t) ((arg lsl tag_bits) lor h)

let pending_events t = t.hp_len

(* ---- slots ---- *)

let slot_create t callback =
  let id = t.sl_len in
  if id = Array.length t.sl_fn then begin
    check_live t "Engine.slot_create";
    let cap = max 4 (2 * id) in
    t.sl_fn <- grown t.sl_fn cap ignore_unit;
    t.sl_pos <- Columns.grow t.sl_pos cap (-1)
  end;
  t.sl_fn.(id) <- callback;
  t.sl_len <- id + 1;
  id

let slot_cancel t s =
  let i = t.sl_pos.(s) in
  if i >= 0 then begin
    t.sl_pos.(s) <- -1;
    remove t i
  end

(* A keyed arming takes the heap position of an event scheduled when
   [stamp] was taken: among events of tick [at] it fires exactly where
   that event would have. An armed slot's entry is re-keyed where it
   stands. *)
let slot_arm_keyed t s ~at ~stamp =
  if at < t.clock then invalid_arg "Engine.slot_arm_keyed: time in the past";
  if stamp < 0 || stamp >= t.stamp then invalid_arg "Engine.slot_arm_keyed: stamp not taken";
  let i = t.sl_pos.(s) in
  if i >= 0 then settle t i at stamp (s lsl tag_bits) else push t at stamp (s lsl tag_bits)

let slot_arm t s ~delay =
  if delay < 0 then invalid_arg "Engine.slot_arm: negative delay";
  slot_arm_keyed t s ~at:(t.clock + delay) ~stamp:(take_stamp t)

let slot_armed t s = t.sl_pos.(s) >= 0

(* ---- firing ---- *)

(* The head leaves the heap before its callback runs: it is no longer
   pending during its own callback, so a slot may re-arm from inside. *)
let fire_head t =
  let key = t.hp_key.(0) in
  t.clock <- t.hp_time.(0);
  remove t 0;
  let tag = key land tag_mask and id = key lsr tag_bits in
  if tag = tag_slot then begin
    t.sl_pos.(id) <- -1;
    t.sl_fn.(id) ()
  end
  else if tag = tag_closure then begin
    let f = t.cl_fn.(id) in
    t.cl_fn.(id) <- ignore_unit;
    t.cl_free.(t.cl_free_len) <- id;
    t.cl_free_len <- t.cl_free_len + 1;
    f ()
  end
  else t.hd_fn.(tag) id

let next_due t = if t.hp_len = 0 then max_int else t.hp_time.(0)

let stop t = t.stopping <- true

(* Fires what is due by [horizon], at most [budget] events; true when
   neither a [stop] nor the budget cut the run short. *)
let fire_until t ~horizon ~budget =
  t.stopping <- false;
  let fired = ref 0 in
  while (not t.stopping) && !fired < budget && t.hp_len > 0 && t.hp_time.(0) <= horizon do
    fire_head t;
    incr fired
  done;
  (not t.stopping) && !fired < budget

let run_until t horizon =
  if fire_until t ~horizon ~budget:max_int then t.clock <- max t.clock horizon

let run ?until ?max_events t =
  let budget = Option.value max_events ~default:max_int in
  match until with
  | Some horizon -> if fire_until t ~horizon ~budget then t.clock <- max t.clock horizon
  | None -> ignore (fire_until t ~horizon:max_int ~budget)

let retire t =
  if not (retired t) then begin
    List.iter Columns.give [ t.hp_time; t.hp_stamp; t.hp_key; t.sl_pos; t.cl_free ];
    t.hp_time <- [||];
    t.hp_stamp <- [||];
    t.hp_key <- [||];
    t.hp_len <- 0;
    t.sl_fn <- [||];
    t.sl_pos <- [||];
    t.sl_len <- 0;
    t.cl_fn <- [||];
    t.cl_free <- [||];
    t.cl_free_len <- 0
  end
