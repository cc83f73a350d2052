(* Bounded weighted-centroid quantile sketch. Centroids live in two
   parallel arrays sorted by value; one spare slot lets [add] insert
   first and collapse after, so the arrays never reallocate. *)

type t = {
  cap : int;
  values : float array;  (* length cap + 1, slots [0, n) in use *)
  weights : float array;
  mutable n : int;
  mutable count : int;
  mutable lo : float;
  mutable hi : float;
}

let create ?(capacity = 64) () =
  if capacity < 8 then invalid_arg "Qsketch.create: capacity must be >= 8";
  {
    cap = capacity;
    values = Array.make (capacity + 1) 0.;
    weights = Array.make (capacity + 1) 0.;
    n = 0;
    count = 0;
    lo = infinity;
    hi = neg_infinity;
  }

let capacity t = t.cap
let count t = t.count
let nodes t = t.n

(* Two float arrays of cap+1 slots (8 bytes each) plus the scalar
   header — a constant, which is the whole point. *)
let mem_bytes t = (16 * t.cap) + 64

let min t = if t.count = 0 then invalid_arg "Qsketch.min: empty" else t.lo
let max t = if t.count = 0 then invalid_arg "Qsketch.max: empty" else t.hi

(* Collapse the adjacent pair with the smallest gap * combined-weight
   cost (ties: lowest index, for determinism). Weighting the gap by the
   pair's mass keeps heavy centroids from swallowing their neighbours,
   which is what holds the rank error down on sorted streams. *)
let collapse t =
  let best = ref 0 and best_cost = ref infinity in
  for i = 0 to t.n - 2 do
    let cost = (t.values.(i + 1) -. t.values.(i)) *. (t.weights.(i) +. t.weights.(i + 1)) in
    if cost < !best_cost then begin
      best_cost := cost;
      best := i
    end
  done;
  let i = !best in
  let w = t.weights.(i) +. t.weights.(i + 1) in
  t.values.(i) <-
    ((t.values.(i) *. t.weights.(i)) +. (t.values.(i + 1) *. t.weights.(i + 1))) /. w;
  t.weights.(i) <- w;
  Array.blit t.values (i + 2) t.values (i + 1) (t.n - i - 2);
  Array.blit t.weights (i + 2) t.weights (i + 1) (t.n - i - 2);
  t.n <- t.n - 1

let insert t x w =
  (* Binary search for the first slot whose value exceeds x. *)
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.values.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  let i = !lo in
  Array.blit t.values i t.values (i + 1) (t.n - i);
  Array.blit t.weights i t.weights (i + 1) (t.n - i);
  t.values.(i) <- x;
  t.weights.(i) <- w;
  t.n <- t.n + 1;
  if t.n > t.cap then collapse t

let add t x =
  t.count <- t.count + 1;
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x;
  insert t x 1.

(* Midpoint-rank interpolation: centroid i represents its weight
   centred at cumulative rank (sum of earlier weights) + w_i / 2. *)
let quantile t q =
  if t.count = 0 then invalid_arg "Qsketch.quantile: empty";
  if q < 0. || q > 1. then invalid_arg "Qsketch.quantile: q out of [0, 1]";
  if t.n = 1 then t.values.(0)
  else begin
    let target = q *. float_of_int t.count in
    let total = Array.fold_left ( +. ) 0. (Array.sub t.weights 0 t.n) in
    let rec walk i cum =
      if i >= t.n then begin
        (* Above the last centroid's midpoint: interpolate toward the
           exact maximum. *)
        let prev = total -. (t.weights.(t.n - 1) /. 2.) in
        let span = total -. prev in
        let frac = if span <= 0. then 1. else (target -. prev) /. span in
        t.values.(t.n - 1) +. (frac *. (t.hi -. t.values.(t.n - 1)))
      end
      else begin
        let mid = cum +. (t.weights.(i) /. 2.) in
        if target <= mid then
          if i = 0 then
            (* Below the first centroid's midpoint: interpolate from the
               exact minimum. *)
            let frac = if mid <= 0. then 1. else target /. mid in
            t.lo +. (frac *. (t.values.(0) -. t.lo))
          else begin
            let prev = cum -. (t.weights.(i - 1) /. 2.) in
            let span = mid -. prev in
            let frac = if span <= 0. then 1. else (target -. prev) /. span in
            t.values.(i - 1) +. (frac *. (t.values.(i) -. t.values.(i - 1)))
          end
        else walk (i + 1) (cum +. t.weights.(i))
      end
    in
    let v = walk 0 0. in
    (* Clamp: interpolation can't legitimately leave the observed range. *)
    if v < t.lo then t.lo else if v > t.hi then t.hi else v
  end

let merge a b =
  let cap = Stdlib.max a.cap b.cap in
  let m = create ~capacity:cap () in
  (* Two-pointer merge keeps the combined centroid list sorted, so the
     result is independent of argument mutation order; inserting in
     value order also makes the collapse sequence canonical. *)
  let i = ref 0 and j = ref 0 in
  while !i < a.n || !j < b.n do
    let take_a =
      !j >= b.n || (!i < a.n && a.values.(!i) <= b.values.(!j))
    in
    if take_a then begin
      insert m a.values.(!i) a.weights.(!i);
      incr i
    end
    else begin
      insert m b.values.(!j) b.weights.(!j);
      incr j
    end
  done;
  m.count <- a.count + b.count;
  m.lo <- Stdlib.min a.lo b.lo;
  m.hi <- Stdlib.max a.hi b.hi;
  m
