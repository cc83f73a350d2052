type t = { lo : float; hi : float; counts : int array; mutable total : int }

let create ~lo ~hi ~bins =
  if lo >= hi then invalid_arg "Histogram.create: lo must be < hi";
  if bins <= 0 then invalid_arg "Histogram.create: bins must be positive";
  { lo; hi; counts = Array.make bins 0; total = 0 }

let bin_of t x =
  let bins = Array.length t.counts in
  if x < t.lo then 0
  else if x >= t.hi then bins - 1
  else begin
    let width = (t.hi -. t.lo) /. float_of_int bins in
    min (bins - 1) (int_of_float ((x -. t.lo) /. width))
  end

let add t x =
  t.counts.(bin_of t x) <- t.counts.(bin_of t x) + 1;
  t.total <- t.total + 1

let total t = t.total
let counts t = Array.copy t.counts

let bin_range t i =
  let bins = Array.length t.counts in
  let width = (t.hi -. t.lo) /. float_of_int bins in
  (t.lo +. (float_of_int i *. width), t.lo +. (float_of_int (i + 1) *. width))

let render ?(width = 50) t =
  let peak = Array.fold_left max 1 t.counts in
  let buf = Buffer.create 256 in
  Array.iteri
    (fun i c ->
      let lo, hi = bin_range t i in
      let bar = String.make (c * width / peak) '#' in
      Buffer.add_string buf (Printf.sprintf "[%10.1f, %10.1f) %6d %s\n" lo hi c bar))
    t.counts;
  Buffer.contents buf
