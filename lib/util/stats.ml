type summary = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

(* The Welford accumulators and the retained samples live in unboxed
   float arrays: a record mixing ints and mutable floats boxes every
   float store, which made each [add] — one per delivered message —
   allocate. A sample arrives as an int and becomes a float only inside
   [add], so no float crosses a call boundary boxed. Indices into
   [acc]: mean, m2, min, max. *)
type t = {
  mutable n : int;
  acc : float array;
  mutable buf : float array;  (* samples, first [n] valid *)
}

let create size = { n = 0; acc = [| 0.; 0.; infinity; neg_infinity |]; buf = Array.make size 0. }

let add t x =
  if t.n = Array.length t.buf then begin
    let nb = Array.make (max 16 (2 * t.n)) 0. in
    Array.blit t.buf 0 nb 0 t.n;
    t.buf <- nb
  end;
  let x = float_of_int x in
  t.buf.(t.n) <- x;
  t.n <- t.n + 1;
  let delta = x -. t.acc.(0) in
  t.acc.(0) <- t.acc.(0) +. (delta /. float_of_int t.n);
  t.acc.(1) <- t.acc.(1) +. (delta *. (x -. t.acc.(0)));
  if x < t.acc.(2) then t.acc.(2) <- x;
  if x > t.acc.(3) then t.acc.(3) <- x

let count t = t.n
let mean t = if t.n = 0 then 0. else t.acc.(0)
let variance t = if t.n < 2 then 0. else t.acc.(1) /. float_of_int (t.n - 1)
let stddev t = sqrt (variance t)

(* A completed column is full, and a full column is never written
   again: the next [add] moves to a fresh array. So a full column is
   handed over as it is. *)
let to_array t = if t.n = Array.length t.buf then t.buf else Array.sub t.buf 0 t.n

(* [select a lo hi k] permutes [a.(lo..hi)] so that [a.(k)] holds the
   value a sort would put there, with no larger value before it and no
   smaller one after. Hoare's partition around the median of three
   values of the range, which splits runs of equal samples evenly. The
   pivot is a local float and the loops are [while] loops over int
   refs, so nothing is boxed and nothing allocates. Ascending order,
   identical to [Array.sort compare] for the finite samples stored
   here. *)
let select (a : float array) lo hi k =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let x = a.(!lo) and y = a.((!lo + !hi) / 2) and z = a.(!hi) in
    let pivot =
      if x < y then if y < z then y else if x < z then z else x
      else if x < z then x
      else if y < z then z
      else y
    in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while pivot < a.(!j) do
        decr j
      done;
      if !i <= !j then begin
        let v = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- v;
        incr i;
        decr j
      end
    done;
    (* [lo..j] <= pivot <= [i..hi], and anything between equals it. *)
    if k <= !j then hi := !j else if k >= !i then lo := !i else lo := !hi
  done

(* Percentiles select order statistics from a copy of the samples in a
   per-domain scratch column, grown to the largest column summarised so
   far, so a summary copies nothing after warm-up and leaves the column
   in delivery order. *)
let scratch = Domain.DLS.new_key (fun () -> ref [||])

let samples t =
  let r = Domain.DLS.get scratch in
  if Array.length !r < t.n then r := Array.make t.n 0.;
  let a = !r in
  Array.blit t.buf 0 a 0 t.n;
  a

(* The two order statistics quantile [q] interpolates between. *)
let rank_lo n q = int_of_float (Float.floor (q *. float_of_int (n - 1)))
let rank_hi n q = min (n - 1) (rank_lo n q + 1)

(* Linear interpolation between the order statistics at [rank_lo] and
   [rank_hi], which [a] must hold in place. *)
let interpolate a n q =
  if n = 1 then a.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = rank_lo n q in
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(rank_hi n q) *. frac)
  end

(* Puts order statistic [k] in place, given that every rank below
   [from] that is asked for is in place and nothing from [from] on is
   smaller than them; returns the next [from]. Asking for ranks in
   ascending order keeps that so: each selection searches only above
   the last, and leaves the ranks it placed alone. *)
let place a n from k =
  if k < from then from
  else begin
    select a from (n - 1) k;
    k + 1
  end

let percentile t q =
  if t.n = 0 then invalid_arg "Stats.percentile: empty";
  let a = samples t and n = t.n in
  ignore (place a n (place a n 0 (rank_lo n q)) (rank_hi n q));
  interpolate a n q

let summary t =
  if t.n = 0 then invalid_arg "Stats.summary: empty";
  let a = samples t and n = t.n in
  let from = place a n 0 (rank_lo n 0.5) in
  let from = place a n from (rank_hi n 0.5) in
  let from = place a n from (rank_lo n 0.9) in
  let from = place a n from (rank_hi n 0.9) in
  let from = place a n from (rank_lo n 0.99) in
  ignore (place a n from (rank_hi n 0.99));
  {
    count = n;
    mean = mean t;
    stddev = stddev t;
    min = t.acc.(2);
    max = t.acc.(3);
    p50 = interpolate a n 0.5;
    p90 = interpolate a n 0.9;
    p99 = interpolate a n 0.99;
  }

let pp_summary ppf s =
  Format.fprintf ppf "n=%d mean=%.3f sd=%.3f min=%.3f p50=%.3f p90=%.3f p99=%.3f max=%.3f"
    s.count s.mean s.stddev s.min s.p50 s.p90 s.p99 s.max

let mean_of xs =
  match xs with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let ci95 xs =
  let n = List.length xs in
  let m = mean_of xs in
  if n < 2 then (m, 0.)
  else begin
    let var = List.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. xs /. float_of_int (n - 1) in
    (m, 1.96 *. sqrt (var /. float_of_int n))
  end
