(* Bounded weighted-centroid quantile sketch. Centroids live in two
   parallel arrays sorted by value; one spare slot lets [add] insert
   first and collapse after, so the arrays never reallocate. The exact
   extremes sit in two more slots of [values], past the spare: a record
   mixing ints and mutable floats boxes every float store. *)

type t = {
  cap : int;
  values : float array;  (* length cap + 3: slots [0, n) in use, then the extremes *)
  weights : float array;  (* length cap + 1 *)
  mutable n : int;
  mutable count : int;
}

(* The slots of the smallest and the largest sample. *)
let lo_slot t = t.cap + 1
let hi_slot t = t.cap + 2

let create ?(capacity = 64) () =
  if capacity < 8 then invalid_arg "Qsketch.create: capacity must be >= 8";
  let values = Array.make (capacity + 3) 0. in
  values.(capacity + 1) <- infinity;
  values.(capacity + 2) <- neg_infinity;
  {
    cap = capacity;
    values;
    weights = Array.make (capacity + 1) 0.;
    n = 0;
    count = 0;
  }

let capacity t = t.cap
let count t = t.count
let nodes t = t.n

(* The 48 B record, [values]'s cap + 3 floats and [weights]'s cap + 1,
   each array with its 8 B header — a constant, which is the whole
   point. *)
let mem_bytes t = (16 * t.cap) + 96

let min t = if t.count = 0 then invalid_arg "Qsketch.min: empty" else t.values.(lo_slot t)
let max t = if t.count = 0 then invalid_arg "Qsketch.max: empty" else t.values.(hi_slot t)

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

(* Insert the centroid staged in the spare slot [n]. It arrives through
   the arrays, not as float arguments, which a call would box. *)
let settle t =
  let x = t.values.(t.n) and w = t.weights.(t.n) in
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

(* A sample staged in slot [n], weight 1. *)
let add_staged t =
  let x = t.values.(t.n) in
  t.count <- t.count + 1;
  if x < t.values.(lo_slot t) then t.values.(lo_slot t) <- x;
  if x > t.values.(hi_slot t) then t.values.(hi_slot t) <- x;
  t.weights.(t.n) <- 1.;
  settle t

let add t x =
  t.values.(t.n) <- x;
  add_staged t

let add_int t x =
  t.values.(t.n) <- float_of_int x;
  add_staged t

let add_scaled t x scale =
  t.values.(t.n) <- float_of_int x *. scale;
  add_staged t

(* Midpoint-rank interpolation: centroid i represents its weight
   centred at cumulative rank (sum of earlier weights) + w_i / 2. *)
let quantile t q =
  if t.count = 0 then invalid_arg "Qsketch.quantile: empty";
  if q < 0. || q > 1. then invalid_arg "Qsketch.quantile: q out of [0, 1]";
  if t.n = 1 then t.values.(0)
  else begin
    let target = q *. float_of_int t.count in
    let total = ref 0. in
    for i = 0 to t.n - 1 do
      total := !total +. t.weights.(i)
    done;
    let total = !total in
    let rec walk i cum =
      if i >= t.n then begin
        (* Above the last centroid's midpoint: interpolate toward the
           exact maximum. *)
        let prev = total -. (t.weights.(t.n - 1) /. 2.) in
        let span = total -. prev in
        let frac = if span <= 0. then 1. else (target -. prev) /. span in
        t.values.(t.n - 1) +. (frac *. (t.values.(hi_slot t) -. t.values.(t.n - 1)))
      end
      else begin
        let mid = cum +. (t.weights.(i) /. 2.) in
        if target <= mid then
          if i = 0 then
            (* Below the first centroid's midpoint: interpolate from the
               exact minimum. *)
            let frac = if mid <= 0. then 1. else target /. mid in
            t.values.(lo_slot t) +. (frac *. (t.values.(0) -. t.values.(lo_slot t)))
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
    let lo = t.values.(lo_slot t) and hi = t.values.(hi_slot t) in
    if v < lo then lo else if v > hi then hi else v
  end

(* Stage [src]'s centroid [k] in [m] and insert it. *)
let stage m src k =
  m.values.(m.n) <- src.values.(k);
  m.weights.(m.n) <- src.weights.(k);
  settle m

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
      stage m a !i;
      incr i
    end
    else begin
      stage m b !j;
      incr j
    end
  done;
  m.count <- a.count + b.count;
  m.values.(lo_slot m) <- Stdlib.min a.values.(lo_slot a) b.values.(lo_slot b);
  m.values.(hi_slot m) <- Stdlib.max a.values.(hi_slot a) b.values.(hi_slot b);
  m
