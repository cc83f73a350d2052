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

(* In-place monomorphic heapsort of [a]'s first [n] slots: [Array.sort
   compare] on a float array boxes both operands of every comparison
   (the polymorphic traversal cannot see the unboxed representation),
   which dominated summary-time allocation. Ascending order, identical
   to [Array.sort compare] for the finite samples stored here. [swap]
   and [sift] take [a] rather than close over it, so a sort allocates
   nothing. *)
let swap (a : float array) i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

let rec sift (a : float array) i len =
  let l = (2 * i) + 1 in
  if l < len then begin
    let c = if l + 1 < len && a.(l + 1) > a.(l) then l + 1 else l in
    if a.(c) > a.(i) then begin
      swap a c i;
      sift a c len
    end
  end

let float_sort a n =
  for i = (n / 2) - 1 downto 0 do
    sift a i n
  done;
  for len = n - 1 downto 1 do
    swap a 0 len;
    sift a 0 len
  done

(* A completed column is full, and a full column is never written
   again: the next [add] moves to a fresh array. So a full column is
   handed over as it is. *)
let to_array t = if t.n = Array.length t.buf then t.buf else Array.sub t.buf 0 t.n

(* Percentiles sort a copy of the samples in a per-domain scratch
   column, grown to the largest column summarised so far, so a summary
   copies nothing after warm-up and leaves the column in delivery
   order. *)
let scratch = Domain.DLS.new_key (fun () -> ref [||])

let sorted_samples t =
  let r = Domain.DLS.get scratch in
  if Array.length !r < t.n then r := Array.make t.n 0.;
  let a = !r in
  Array.blit t.buf 0 a 0 t.n;
  float_sort a t.n;
  a

let percentile_of_sorted a n q =
  if n = 0 then invalid_arg "Stats.percentile: empty";
  if n = 1 then a.(0)
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  end

let percentile t q = percentile_of_sorted (sorted_samples t) t.n q

let summary t =
  if t.n = 0 then invalid_arg "Stats.summary: empty";
  let a = sorted_samples t in
  {
    count = t.n;
    mean = mean t;
    stddev = stddev t;
    min = t.acc.(2);
    max = t.acc.(3);
    p50 = percentile_of_sorted a t.n 0.5;
    p90 = percentile_of_sorted a t.n 0.9;
    p99 = percentile_of_sorted a t.n 0.99;
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
