exception Stopped

(* The event queue is a struct-of-arrays arena plus an int-keyed binary
   heap, replacing the old closure-per-event record heap. An event is an
   arena slot holding its callback (an [int -> unit] plus an int
   argument, so hot callers never build a closure per event) and a
   generation counter; the heap orders (time, stamp) pairs with plain
   int comparisons — the stamp is a monotonically increasing insertion
   counter, which is exactly the old stable heap's insertion-order
   tie-break, so same-tick events still fire in scheduling order and
   every trace stays byte-identical. A stamp may be taken ahead of its
   push ([take_stamp], [slot_arm_keyed]); it keeps its place in that
   order all the same.

   Cancellation is generational: freeing a slot bumps its generation,
   so heap entries (and user-held handles) that recorded the old
   generation are recognisably stale. Dead heap entries are skipped at
   the head and compacted in bulk, with the same counters and
   compaction policy the record-based engine had. *)

type t = {
  mutable clock : int;
  rng : Ba_util.Rng.t;
  mutable pending : int;  (* live events currently in the queue *)
  mutable dead : int;  (* cancelled events still occupying heap slots *)
  mutable stopping : bool;
  (* event arena *)
  mutable ar_fn : (int -> unit) array;
  mutable ar_arg : int array;
  mutable ar_gen : int array;
  mutable free : int array;  (* free-list stack of arena slots *)
  mutable free_len : int;
  (* binary heap over (time, stamp), entries point into the arena *)
  mutable hp_time : int array;
  mutable hp_stamp : int array;
  mutable hp_slot : int array;
  mutable hp_gen : int array;
  mutable hp_len : int;
  mutable stamp : int;  (* next insertion stamp; never reset *)
}

type handle = { h_owner : t; h_slot : int; h_gen : int }

type slot = {
  s_owner : t;
  mutable s_fire : int -> unit;  (* the one closure, built at [slot_create] *)
  mutable s_idx : int;  (* arena slot while armed, -1 otherwise *)
  mutable s_expiry : int;
}

let ignore_int (_ : int) = ()

(* Compact when corpses outnumber live events: a sender that cancels one
   timer per acknowledgment would otherwise grow the heap without bound
   (every pop then pays log of a heap dominated by dead entries). The
   floor keeps tiny heaps from re-heapifying on every other cancel. *)
let compaction_floor = 32

let initial_cap = 64

let create ?(seed = 1) () =
  {
    clock = 0;
    rng = Ba_util.Rng.create seed;
    pending = 0;
    dead = 0;
    stopping = false;
    ar_fn = Array.make initial_cap ignore_int;
    ar_arg = Array.make initial_cap 0;
    ar_gen = Array.make initial_cap 0;
    free = Array.init initial_cap (fun i -> initial_cap - 1 - i);
    free_len = initial_cap;
    hp_time = Array.make initial_cap 0;
    hp_stamp = Array.make initial_cap 0;
    hp_slot = Array.make initial_cap 0;
    hp_gen = Array.make initial_cap 0;
    hp_len = 0;
    stamp = 0;
  }

let now t = t.clock
let rng t = t.rng

(* ---- arena ---- *)

let grow_arena t =
  let old = Array.length t.ar_fn in
  let cap = 2 * old in
  let fn = Array.make cap ignore_int in
  Array.blit t.ar_fn 0 fn 0 old;
  t.ar_fn <- fn;
  let arg = Array.make cap 0 in
  Array.blit t.ar_arg 0 arg 0 old;
  t.ar_arg <- arg;
  let gen = Array.make cap 0 in
  Array.blit t.ar_gen 0 gen 0 old;
  t.ar_gen <- gen;
  (* grown only when the free stack is empty, so just refill it with the
     new slots (lowest index popped first) *)
  let free = Array.make cap 0 in
  for i = 0 to old - 1 do
    free.(i) <- cap - 1 - i
  done;
  t.free <- free;
  t.free_len <- old

let acquire t =
  if t.free_len = 0 then grow_arena t;
  t.free_len <- t.free_len - 1;
  t.free.(t.free_len)

(* Bumping the generation is what invalidates every outstanding heap
   entry and handle for this slot; clearing the callback drops whatever
   it captured. *)
let release_slot t idx =
  t.ar_gen.(idx) <- t.ar_gen.(idx) + 1;
  t.ar_fn.(idx) <- ignore_int;
  t.free.(t.free_len) <- idx;
  t.free_len <- t.free_len + 1

(* ---- heap ---- *)

let hp_less t i j =
  t.hp_time.(i) < t.hp_time.(j)
  || (t.hp_time.(i) = t.hp_time.(j) && t.hp_stamp.(i) < t.hp_stamp.(j))

let hp_swap t i j =
  let tm = t.hp_time.(i) in
  t.hp_time.(i) <- t.hp_time.(j);
  t.hp_time.(j) <- tm;
  let st = t.hp_stamp.(i) in
  t.hp_stamp.(i) <- t.hp_stamp.(j);
  t.hp_stamp.(j) <- st;
  let sl = t.hp_slot.(i) in
  t.hp_slot.(i) <- t.hp_slot.(j);
  t.hp_slot.(j) <- sl;
  let g = t.hp_gen.(i) in
  t.hp_gen.(i) <- t.hp_gen.(j);
  t.hp_gen.(j) <- g

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if hp_less t i parent then begin
      hp_swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 in
  if l < t.hp_len then begin
    let smallest = if hp_less t l i then l else i in
    let r = l + 1 in
    let smallest = if r < t.hp_len && hp_less t r smallest then r else smallest in
    if smallest <> i then begin
      hp_swap t i smallest;
      sift_down t smallest
    end
  end

let heap_grow t =
  let old = Array.length t.hp_time in
  let cap = 2 * old in
  let tm = Array.make cap 0 in
  Array.blit t.hp_time 0 tm 0 old;
  t.hp_time <- tm;
  let st = Array.make cap 0 in
  Array.blit t.hp_stamp 0 st 0 old;
  t.hp_stamp <- st;
  let sl = Array.make cap 0 in
  Array.blit t.hp_slot 0 sl 0 old;
  t.hp_slot <- sl;
  let g = Array.make cap 0 in
  Array.blit t.hp_gen 0 g 0 old;
  t.hp_gen <- g

let take_stamp t =
  let s = t.stamp in
  t.stamp <- s + 1;
  s

let heap_push t ~time ~stamp ~slot ~gen =
  if t.hp_len = Array.length t.hp_time then heap_grow t;
  let i = t.hp_len in
  t.hp_len <- i + 1;
  t.hp_time.(i) <- time;
  t.hp_stamp.(i) <- stamp;
  t.hp_slot.(i) <- slot;
  t.hp_gen.(i) <- gen;
  sift_up t i

(* Discard the root (callers read its fields first). *)
let heap_pop_root t =
  let last = t.hp_len - 1 in
  t.hp_len <- last;
  if last > 0 then begin
    t.hp_time.(0) <- t.hp_time.(last);
    t.hp_stamp.(0) <- t.hp_stamp.(last);
    t.hp_slot.(0) <- t.hp_slot.(last);
    t.hp_gen.(0) <- t.hp_gen.(last);
    sift_down t 0
  end

(* ---- scheduling ---- *)

let enqueue t ~at ~stamp fn arg =
  let idx = acquire t in
  t.ar_fn.(idx) <- fn;
  t.ar_arg.(idx) <- arg;
  heap_push t ~time:at ~stamp ~slot:idx ~gen:t.ar_gen.(idx);
  t.pending <- t.pending + 1;
  idx

let schedule_at t ~at action =
  if at < t.clock then invalid_arg "Engine.schedule_at: time in the past";
  let idx = enqueue t ~at ~stamp:(take_stamp t) (fun _ -> action ()) 0 in
  { h_owner = t; h_slot = idx; h_gen = t.ar_gen.(idx) }

let schedule t ~delay action =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock + delay) action

let schedule_fn t ~delay fn arg =
  if delay < 0 then invalid_arg "Engine.schedule_fn: negative delay";
  ignore (enqueue t ~at:(t.clock + delay) ~stamp:(take_stamp t) fn arg)

(* ---- cancellation ---- *)

let maybe_compact t =
  if t.dead > t.pending && t.dead > compaction_floor then begin
    (* Keep gen-matching entries in place (their stamps come along, so
       relative order among survivors is preserved), then Floyd-heapify. *)
    let n = t.hp_len in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if t.hp_gen.(i) = t.ar_gen.(t.hp_slot.(i)) then begin
        let k = !j in
        if k <> i then begin
          t.hp_time.(k) <- t.hp_time.(i);
          t.hp_stamp.(k) <- t.hp_stamp.(i);
          t.hp_slot.(k) <- t.hp_slot.(i);
          t.hp_gen.(k) <- t.hp_gen.(i)
        end;
        incr j
      end
    done;
    t.hp_len <- !j;
    for k = (!j / 2) - 1 downto 0 do
      sift_down t k
    done;
    t.dead <- 0
  end

let cancel_slot t idx =
  release_slot t idx;
  t.pending <- t.pending - 1;
  t.dead <- t.dead + 1;
  maybe_compact t

let handle_pending h = h.h_gen = h.h_owner.ar_gen.(h.h_slot)

let cancel h = if handle_pending h then cancel_slot h.h_owner h.h_slot

let is_pending h = handle_pending h

let pending_events t = t.pending

let queue_length t = t.hp_len

(* ---- slots ---- *)

let slot_create t callback =
  let s = { s_owner = t; s_fire = ignore_int; s_idx = -1; s_expiry = 0 } in
  s.s_fire <-
    (fun _ ->
      s.s_idx <- -1;
      callback ());
  s

let slot_cancel s =
  if s.s_idx >= 0 then begin
    cancel_slot s.s_owner s.s_idx;
    s.s_idx <- -1
  end

(* A keyed arming takes the heap position of an event scheduled when
   [stamp] was taken: among events of tick [at] it fires exactly where
   that event would have. *)
let slot_arm_keyed s ~at ~stamp =
  let t = s.s_owner in
  if at < t.clock then invalid_arg "Engine.slot_arm_keyed: time in the past";
  if stamp < 0 || stamp >= t.stamp then invalid_arg "Engine.slot_arm_keyed: stamp not taken";
  if s.s_idx >= 0 then cancel_slot t s.s_idx;
  s.s_idx <- enqueue t ~at ~stamp s.s_fire 0;
  s.s_expiry <- at

let slot_arm s ~delay =
  if delay < 0 then invalid_arg "Engine.slot_arm: negative delay";
  let t = s.s_owner in
  slot_arm_keyed s ~at:(t.clock + delay) ~stamp:(take_stamp t)

let slot_armed s = s.s_idx >= 0
let slot_expiry s = s.s_expiry

(* ---- firing ---- *)

(* The one corpse-skipping path: drop stale entries off the head of the
   heap (keeping the [dead] counter exact). True when a live head
   remains at index 0. *)
let rec skip_corpses t =
  if t.hp_len = 0 then false
  else if t.hp_gen.(0) = t.ar_gen.(t.hp_slot.(0)) then true
  else begin
    heap_pop_root t;
    t.dead <- t.dead - 1;
    skip_corpses t
  end

let fire_head t =
  let time = t.hp_time.(0) in
  let idx = t.hp_slot.(0) in
  heap_pop_root t;
  t.clock <- time;
  let fn = t.ar_fn.(idx) in
  let arg = t.ar_arg.(idx) in
  (* Free before calling: the event is no longer pending during its own
     callback (so a handle or slot can be re-armed from inside it). *)
  release_slot t idx;
  t.pending <- t.pending - 1;
  fn arg

let next_due t = if skip_corpses t then Some t.hp_time.(0) else None

let step t =
  if not (skip_corpses t) then false
  else begin
    fire_head t;
    true
  end

let drain_batch t =
  if not (skip_corpses t) then 0
  else begin
    let tick = t.hp_time.(0) in
    let fired = ref 0 in
    let continue = ref true in
    while !continue do
      if (not t.stopping) && skip_corpses t && t.hp_time.(0) = tick then begin
        fire_head t;
        incr fired
      end
      else continue := false
    done;
    !fired
  end

let stop t = t.stopping <- true

let run ?until ?max_events t =
  t.stopping <- false;
  let fired = ref 0 in
  let budget_ok () = match max_events with None -> true | Some m -> !fired < m in
  let rec loop () =
    if t.stopping || not (budget_ok ()) then ()
    else if skip_corpses t then begin
      match until with
      | Some horizon when t.hp_time.(0) > horizon -> ()
      | Some _ | None ->
          fire_head t;
          incr fired;
          loop ()
    end
  in
  loop ();
  match until with
  | Some horizon when (not t.stopping) && budget_ok () -> t.clock <- max t.clock horizon
  | Some _ | None -> ()
