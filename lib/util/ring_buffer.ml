(* Two columns at slot [key mod capacity]: [keys.(s)] is the key held in
   slot [s] (-1 when empty) and [vals.(s)] its value ([fill] when
   empty). Both start empty and are rebuilt only by [grow]; every other
   operation works in place and allocates nothing. *)
type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable live : int;
  limit : int;
  fill : 'a;
}

let create ~limit fill =
  if limit <= 0 then invalid_arg "Ring_buffer.create: limit must be positive";
  { keys = [||]; vals = [||]; live = 0; limit; fill }

let next_capacity cap ~need ~limit =
  let c = ref (max 1 (2 * cap)) in
  while !c <= need do
    c := 2 * !c
  done;
  min limit !c

let place a ~cap ~fill ~lo ~hi =
  let old = Array.length a in
  let b = Array.make cap fill in
  for k = lo to hi - 1 do
    b.(k mod cap) <- a.(k mod old)
  done;
  b

let capacity t = Array.length t.keys

(* The slot holding key [k], or -1. *)
let slot t k =
  let cap = Array.length t.keys in
  if k >= 0 && cap > 0 && t.keys.(k mod cap) = k then k mod cap else -1

let mem t k = slot t k >= 0

let find t k =
  let s = slot t k in
  if s < 0 then raise Not_found else t.vals.(s)

(* Room for [k]: the next capacity past [k - lo], with every key at or
   above [lo] placed again at its new slot and every dead key dropped. *)
let grow t ~lo k =
  let cap = next_capacity (capacity t) ~need:(k - lo) ~limit:t.limit in
  let keys = Array.make cap (-1) and vals = Array.make cap t.fill in
  t.live <- 0;
  for s = 0 to capacity t - 1 do
    let j = t.keys.(s) in
    if j >= lo then begin
      keys.(j mod cap) <- j;
      vals.(j mod cap) <- t.vals.(s);
      t.live <- t.live + 1
    end
  done;
  t.keys <- keys;
  t.vals <- vals

let set t ~lo k v =
  if k - lo >= capacity t && capacity t < t.limit then grow t ~lo k;
  let s = k mod capacity t in
  let j = t.keys.(s) in
  if j <> k then begin
    if j >= lo then
      invalid_arg
        (Printf.sprintf "Ring_buffer.set: slot collision (index %d vs live %d, capacity %d)" k j
           (capacity t));
    if j < 0 then t.live <- t.live + 1;
    t.keys.(s) <- k
  end;
  t.vals.(s) <- v

let remove t k =
  let s = slot t k in
  if s >= 0 then begin
    t.keys.(s) <- -1;
    t.vals.(s) <- t.fill;
    t.live <- t.live - 1
  end

let occupancy t = t.live

let iter f t =
  for s = 0 to capacity t - 1 do
    let k = t.keys.(s) in
    if k >= 0 then f k t.vals.(s)
  done

let fold f t init =
  let acc = ref init in
  for s = 0 to capacity t - 1 do
    let k = t.keys.(s) in
    if k >= 0 then acc := f k t.vals.(s) !acc
  done;
  !acc

let clear t =
  Array.fill t.keys 0 (capacity t) (-1);
  Array.fill t.vals 0 (capacity t) t.fill;
  t.live <- 0
