(* xoshiro256** seeded through splitmix64, bit-for-bit identical to the
   textbook int64 formulation — but computed on plain-int 32-bit halves
   (hi, lo per 64-bit word) so that drawing allocates nothing. A
   [mutable int64] state would box every intermediate of every draw
   (~10 boxes per [bits64]), which put the generator at the top of the
   data path's allocation profile: links sample it per frame for loss
   and delay. Workload payloads take the C symbol kernel in
   byte_kernels.c instead ([fill_symbols]/[symbols_match] below), which
   keeps one payload's whole stream in registers. *)

type t = {
  (* xoshiro256** state, one (hi, lo) pair of 32-bit halves per word *)
  mutable s0h : int;
  mutable s0l : int;
  mutable s1h : int;
  mutable s1l : int;
  mutable s2h : int;
  mutable s2l : int;
  mutable s3h : int;
  mutable s3l : int;
  (* last output word; lets [next] produce 64 bits without a tuple *)
  mutable r_hi : int;
  mutable r_lo : int;
  (* splitmix64 state; only live during [create] *)
  mutable sm_h : int;
  mutable sm_l : int;
}

let mask32 = 0xFFFFFFFF

(* One splitmix64 draw: advances (sm_h, sm_l), leaves the output word in
   (r_hi, r_lo). The two 64x64-bit multiplies keep every partial product
   under 2^49 by splitting the low halves into 16-bit limbs. *)
let sm_next t =
  let lo = t.sm_l + 0x7F4A7C15 in
  let hi = (t.sm_h + 0x9E3779B9 + (lo lsr 32)) land mask32 in
  let lo = lo land mask32 in
  t.sm_h <- hi;
  t.sm_l <- lo;
  (* z ^= z >>> 30 *)
  let zh = hi lxor (hi lsr 30)
  and zl = lo lxor (((lo lsr 30) lor ((hi lsl 2) land mask32)) land mask32) in
  (* z *= 0xBF58476D1CE4E5B9 *)
  let bh = 0xBF58476D and bl = 0x1CE4E5B9 in
  let al0 = zl land 0xFFFF and al1 = zl lsr 16 in
  let bl0 = bl land 0xFFFF and bl1 = bl lsr 16 in
  let p0 = al0 * bl0 and p1 = (al1 * bl0) + (al0 * bl1) and p2 = al1 * bl1 in
  let mid = p0 + ((p1 land 0xFFFF) lsl 16) in
  let lo' = mid land mask32 in
  let carry = (mid lsr 32) + (p1 lsr 16) + p2 in
  let hi' =
    (carry + ((al0 * bh) + ((al1 * (bh land 0xFFFF)) lsl 16))
    + (((zh land 0xFFFF) * bl) + (((zh lsr 16) * (bl land 0xFFFF)) lsl 16)))
    land mask32
  in
  (* z ^= z >>> 27 *)
  let zh = hi' lxor (hi' lsr 27)
  and zl = lo' lxor (((lo' lsr 27) lor ((hi' lsl 5) land mask32)) land mask32) in
  (* z *= 0x94D049BB133111EB *)
  let bh = 0x94D049BB and bl = 0x133111EB in
  let al0 = zl land 0xFFFF and al1 = zl lsr 16 in
  let bl0 = bl land 0xFFFF and bl1 = bl lsr 16 in
  let p0 = al0 * bl0 and p1 = (al1 * bl0) + (al0 * bl1) and p2 = al1 * bl1 in
  let mid = p0 + ((p1 land 0xFFFF) lsl 16) in
  let lo' = mid land mask32 in
  let carry = (mid lsr 32) + (p1 lsr 16) + p2 in
  let hi' =
    (carry + ((al0 * bh) + ((al1 * (bh land 0xFFFF)) lsl 16))
    + (((zh land 0xFFFF) * bl) + (((zh lsr 16) * (bl land 0xFFFF)) lsl 16)))
    land mask32
  in
  (* z ^= z >>> 31 *)
  t.r_hi <- hi' lxor (hi' lsr 31);
  t.r_lo <- lo' lxor (((lo' lsr 31) lor ((hi' lsl 1) land mask32)) land mask32)

let create seed =
  let t =
    {
      s0h = 0; s0l = 0; s1h = 0; s1l = 0;
      s2h = 0; s2l = 0; s3h = 0; s3l = 0;
      r_hi = 0; r_lo = 0;
      (* the seed, sign-extended to 64 bits like [Int64.of_int] *)
      sm_h = (seed asr 32) land mask32;
      sm_l = seed land mask32;
    }
  in
  sm_next t;
  t.s0h <- t.r_hi;
  t.s0l <- t.r_lo;
  sm_next t;
  t.s1h <- t.r_hi;
  t.s1l <- t.r_lo;
  sm_next t;
  t.s2h <- t.r_hi;
  t.s2l <- t.r_lo;
  sm_next t;
  t.s3h <- t.r_hi;
  t.s3l <- t.r_lo;
  t

let copy t =
  {
    s0h = t.s0h; s0l = t.s0l; s1h = t.s1h; s1l = t.s1l;
    s2h = t.s2h; s2l = t.s2l; s3h = t.s3h; s3l = t.s3l;
    r_hi = t.r_hi; r_lo = t.r_lo; sm_h = t.sm_h; sm_l = t.sm_l;
  }

(* One xoshiro256** step: result = rotl(s1 * 5, 7) * 9, then the state
   transition. Leaves the 64-bit result in (r_hi, r_lo). *)
let next t =
  let h = t.s1h and l = t.s1l in
  (* a = s1 * 5 = s1 + (s1 << 2) *)
  let lo = l + ((l lsl 2) land mask32) in
  let ah = (h + (((h lsl 2) lor (l lsr 30)) land mask32) + (lo lsr 32)) land mask32 in
  let al = lo land mask32 in
  (* b = rotl(a, 7) *)
  let bh = ((ah lsl 7) lor (al lsr 25)) land mask32
  and bl = ((al lsl 7) lor (ah lsr 25)) land mask32 in
  (* r = b * 9 = b + (b << 3) *)
  let lo = bl + ((bl lsl 3) land mask32) in
  t.r_hi <- (bh + (((bh lsl 3) lor (bl lsr 29)) land mask32) + (lo lsr 32)) land mask32;
  t.r_lo <- lo land mask32;
  (* state transition *)
  let th = ((h lsl 17) lor (l lsr 15)) land mask32 and tl = (l lsl 17) land mask32 in
  t.s2h <- t.s2h lxor t.s0h;
  t.s2l <- t.s2l lxor t.s0l;
  t.s3h <- t.s3h lxor h;
  t.s3l <- t.s3l lxor l;
  t.s1h <- t.s1h lxor t.s2h;
  t.s1l <- t.s1l lxor t.s2l;
  t.s0h <- t.s0h lxor t.s3h;
  t.s0l <- t.s0l lxor t.s3l;
  t.s2h <- t.s2h lxor th;
  t.s2l <- t.s2l lxor tl;
  (* s3 = rotl(s3, 45) = rotl(swap halves, 13) *)
  let h3 = t.s3h and l3 = t.s3l in
  t.s3h <- ((l3 lsl 13) lor (h3 lsr 19)) land mask32;
  t.s3l <- ((h3 lsl 13) lor (l3 lsr 19)) land mask32

let bits64 t =
  next t;
  Int64.logor (Int64.shift_left (Int64.of_int t.r_hi) 32) (Int64.of_int t.r_lo)

let split t = create (Int64.to_int (bits64 t) land max_int)

(* Non-negative 61-bit value: [1 lsl 61] is still a valid OCaml int, so
   the rejection bound below cannot overflow. *)
let bit_width = 61

let bits t =
  next t;
  (t.r_hi lsl 29) lor (t.r_lo lsr 3)

(* Top-level (closure-free) rejection loop: a local [let rec draw ()]
   would allocate a closure on every [int] call. *)
let rec reject t bound limit =
  let v = bits t in
  if v < limit then v mod bound else reject t bound limit

let int t bound =
  assert (bound > 0);
  (* Rejection sampling to avoid modulo bias. *)
  let max = 1 lsl bit_width in
  let limit = max - (max mod bound) in
  reject t bound limit

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let float t bound = bound *. (float_of_int (bits t) /. float_of_int (1 lsl bit_width))

let bernoulli t p = if p <= 0. then false else if p >= 1. then true else float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let geometric t p =
  if p >= 1. then 0
  else if p <= 0. then invalid_arg "Rng.geometric: p must be positive"
  else
    let u = float t 1.0 in
    let u = if u <= 0. then epsilon_float else u in
    int_of_float (Float.floor (log u /. log (1. -. p)))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

(* The bulk symbol kernel, in byte_kernels.c: the same splitmix64
   seeding, xoshiro256** steps and rejection draws as [create seed]
   followed by one [int _ bound] per symbol, so its output is
   byte-identical to that loop, with the generator state in machine
   registers and, for the 36-symbol alphabet, a constant modulus.
   [fill_symbols_c] writes the symbols at [pos]; [symbols_match_c]
   compares them with the bytes there and stops at the first
   difference. Neither checks its range: [check_symbols] runs first. *)
external fill_symbols_c : int -> string -> Bytes.t -> int -> int -> unit = "ba_fill_symbols"
[@@noalloc]

external symbols_match_c : int -> string -> string -> int -> int -> bool = "ba_symbols_match"
[@@noalloc]

let check_symbols fn alphabet n pos len =
  if String.length alphabet = 0 then invalid_arg (fn ^ ": empty alphabet");
  if pos < 0 || len < 0 || pos > n - len then invalid_arg (fn ^ ": range out of bounds")

let fill_symbols ~seed alphabet b ~pos ~len =
  check_symbols "Rng.fill_symbols" alphabet (Bytes.length b) pos len;
  fill_symbols_c seed alphabet b pos len

let symbols_match ~seed alphabet s ~pos ~len =
  check_symbols "Rng.symbols_match" alphabet (String.length s) pos len;
  symbols_match_c seed alphabet s pos len
