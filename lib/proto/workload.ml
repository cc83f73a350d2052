let filler_alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"

(* "m:<i>:" followed by seeded filler, built in one [Bytes] — the
   sprintf/init/concat formulation allocated several intermediates per
   payload, which dominated the transfer benchmarks' heap profile. The
   filler is one [Rng.fill_symbols] call, byte-identical to drawing
   each symbol from a fresh [Rng.create (filler_seed ~seed i)]. *)
(* Top-level helpers: local [let rec] closures would allocate per call. *)
let rec decimal_width n acc = if n < 10 then acc else decimal_width (n / 10) (acc + 1)

let rec put_digits b v k =
  Bytes.unsafe_set b k (Char.unsafe_chr (Char.code '0' + (v mod 10)));
  if v >= 10 then put_digits b (v / 10) (k - 1)

let filler_seed ~seed i = (seed * 1_000_003) + i

(* Payload [i]'s length: the prefix, or [size] when that is longer. *)
let length ~size i = max (2 + decimal_width i 1 + 1) size

let write_payload ~seed ~size i b =
  if i < 0 then invalid_arg "Workload.write_payload: negative index";
  let ndigits = decimal_width i 1 in
  let plen = 2 + ndigits + 1 in
  let n = max plen size in
  if Bytes.length b < n then invalid_arg "Workload.write_payload: buffer too small";
  Bytes.unsafe_set b 0 'm';
  Bytes.unsafe_set b 1 ':';
  put_digits b i (2 + ndigits - 1);
  Bytes.unsafe_set b (plen - 1) ':';
  Ba_util.Rng.fill_symbols ~seed:(filler_seed ~seed i) filler_alphabet b ~pos:plen
    ~len:(n - plen);
  n

let payload ~seed ~size i =
  if i < 0 then invalid_arg "Workload.payload: negative index";
  let b = Bytes.create (length ~size i) in
  ignore (write_payload ~seed ~size i b);
  Bytes.unsafe_to_string b

let rec digits_match s v k =
  String.unsafe_get s k = Char.unsafe_chr (Char.code '0' + (v mod 10))
  && (v < 10 || digits_match s (v / 10) (k - 1))

(* [payload]'s bytes checked in place, prefix first: nothing is built,
   so a delivery check allocates nothing. *)
let matches ~seed ~size i s =
  i >= 0
  &&
  let ndigits = decimal_width i 1 in
  let plen = 2 + ndigits + 1 in
  let n = max plen size in
  String.length s = n
  && String.unsafe_get s 0 = 'm'
  && String.unsafe_get s 1 = ':'
  && digits_match s i (2 + ndigits - 1)
  && String.unsafe_get s (plen - 1) = ':'
  && Ba_util.Rng.symbols_match ~seed:(filler_seed ~seed i) filler_alphabet s ~pos:plen
       ~len:(n - plen)

(* Parse the "m:<digits>:" prefix in place — no [String.sub], no local
   closure and no option, so the per-frame validation path allocates
   nothing. *)
let rec parse_index s n i acc =
  if i >= n || i > 20 then -1
  else
    match s.[i] with
    | ':' -> if i = 2 then -1 else acc
    | '0' .. '9' -> parse_index s n (i + 1) ((acc * 10) + (Char.code s.[i] - Char.code '0'))
    | _ -> -1

let index s =
  if String.length s >= 2 && s.[0] = 'm' && s.[1] = ':' then
    parse_index s (String.length s) 2 0
  else -1

let index_of s =
  let i = index s in
  if i < 0 then None else Some i

let supplier ~seed ~size ~count =
  let next = ref 0 in
  fun () ->
    if !next >= count then raise_notrace Protocol.Exhausted
    else begin
      let p = payload ~seed ~size !next in
      incr next;
      p
    end
