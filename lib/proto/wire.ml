(* Frames carry an incarnation [epoch] so a restarted endpoint can
   reject traffic from its peer's (or its own) previous life, and a
   [kind] discriminator for the three resync-handshake messages
   (REQ/POS/FIN) that re-establish a common position after a crash.
   Epoch 0 with kind [Msg]/[Ack] is exactly the pre-crash wire format.

   Fields are mutable solely so frames can be pooled: [make_data_e] and
   [make_ack_e] draw records from a domain-local free-list that
   [release_data]/[release_ack] refill, making the steady-state data
   path allocation-free. Pooling is value-transparent — a pooled frame
   is indistinguishable from a fresh one — and opt-in: a frame nobody
   releases is simply collected by the GC as before. *)

type data_kind = Msg | Sync_req | Sync_fin

type data = {
  mutable seq : int;
  mutable payload : string;
  mutable epoch : int;
  mutable dkind : data_kind;
  mutable check : int;
}

type ack_kind = Ack | Sync_pos

type ack = {
  mutable lo : int;
  mutable hi : int;
  mutable epoch : int;
  mutable akind : ack_kind;
  mutable check : int;
}

(* FNV-style multiply-xor fold, one multiply per word instead of the
   textbook one-per-byte: headers fold as whole ints and the payload in
   7-byte chunks (7 x 8 = 56 bits, so a chunk never reaches the state's
   top bits). The state is 62 bits: [land max_int] keeps bits 0-61, as
   OCaml's [max_int] is 2^62 - 1. The step
   [h <- (h lxor w) * prime land max_int] is a bijection of [h] for
   fixed [w] (the prime is odd, so multiplying by it is invertible mod
   2^62), which makes detection provable rather than probabilistic: any
   change confined to one chunk — in particular every byte flip and
   header perturbation [corrupt_data]/[corrupt_ack] inject — changes
   that step's output, and every later step propagates the difference.
   The header fold is OCaml; the payload fold is a C loop, so
   checksumming allocates nothing and costs about one multiply per 7
   payload bytes. *)
let fnv_prime = 0x100000001b3
let fnv_offset = 0x3bf29ce484222325

let fnv_word h w = (h lxor w) * fnv_prime land max_int

let fnv_int h v = fnv_word h (v land max_int)

let data_kind_tag = function Msg -> 0 | Sync_req -> 1 | Sync_fin -> 2
let ack_kind_tag = function Ack -> 0 | Sync_pos -> 1

(* [fnv_payload h s] folds all of [s] into [h] with [fnv_word], in
   7-byte little-endian chunks; the final short chunk folds however
   many bytes remain (its length is implied by the position, which the
   header fold has already bound). In byte_kernels.c. *)
external fnv_payload : int -> string -> int = "ba_fnv_fold" [@@noalloc]

let data_checksum ~seq ~payload ~epoch ~dkind =
  let h = fnv_int fnv_offset seq in
  (* Epoch-0 [Msg] frames hash exactly as before the crash-tolerance
     layer existed: folding two extra zero ints would be harmless but
     this keeps the whole zero-epoch wire image bit-identical. *)
  let h =
    match dkind with
    | Msg when epoch = 0 -> h
    | _ -> fnv_int (fnv_int h epoch) (data_kind_tag dkind)
  in
  fnv_payload h payload

let ack_checksum ~lo ~hi ~epoch ~akind =
  let h = fnv_int (fnv_int fnv_offset lo) hi in
  match akind with
  | Ack when epoch = 0 -> h
  | _ -> fnv_int (fnv_int h epoch) (ack_kind_tag akind)

(* ---- frame pool ----

   One pool per domain: parallel campaign runners each get their own
   free-lists, so pooling needs no synchronization and frames never
   migrate between domains (a run executes entirely inside one). *)

let pool_cap = 256

type pool = {
  mutable dfree : data array;
  mutable dlen : int;
  mutable afree : ack array;
  mutable alen : int;
}

let dummy_data = { seq = 0; payload = ""; epoch = 0; dkind = Msg; check = 0 }
let dummy_ack = { lo = 0; hi = 0; epoch = 0; akind = Ack; check = 0 }

let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        dfree = Array.make pool_cap dummy_data;
        dlen = 0;
        afree = Array.make pool_cap dummy_ack;
        alen = 0;
      })

let make_data_e ~epoch ~seq ~payload =
  let check = data_checksum ~seq ~payload ~epoch ~dkind:Msg in
  let p = Domain.DLS.get pool_key in
  if p.dlen > 0 then begin
    p.dlen <- p.dlen - 1;
    let d = p.dfree.(p.dlen) in
    p.dfree.(p.dlen) <- dummy_data;
    d.seq <- seq;
    d.payload <- payload;
    d.epoch <- epoch;
    d.dkind <- Msg;
    d.check <- check;
    d
  end
  else { seq; payload; epoch; dkind = Msg; check }

let make_ack_e ~epoch ~lo ~hi =
  let check = ack_checksum ~lo ~hi ~epoch ~akind:Ack in
  let p = Domain.DLS.get pool_key in
  if p.alen > 0 then begin
    p.alen <- p.alen - 1;
    let a = p.afree.(p.alen) in
    p.afree.(p.alen) <- dummy_ack;
    a.lo <- lo;
    a.hi <- hi;
    a.epoch <- epoch;
    a.akind <- Ack;
    a.check <- check;
    a
  end
  else { lo; hi; epoch; akind = Ack; check }

let release_data d =
  if d != dummy_data then begin
    let p = Domain.DLS.get pool_key in
    if p.dlen < pool_cap then begin
      d.payload <- "";
      p.dfree.(p.dlen) <- d;
      p.dlen <- p.dlen + 1
    end
  end

let release_ack a =
  if a != dummy_ack then begin
    let p = Domain.DLS.get pool_key in
    if p.alen < pool_cap then begin
      p.afree.(p.alen) <- a;
      p.alen <- p.alen + 1
    end
  end

(* Epoch-0 constructors: the pre-crash wire format, used by every
   protocol that never restarts. *)
let make_data ~seq ~payload = make_data_e ~epoch:0 ~seq ~payload
let make_ack ~lo ~hi = make_ack_e ~epoch:0 ~lo ~hi

(* Handshake frames. [Sync_pos] carries the receiver's stable delivered
   count in [lo] (and mirrors it in [hi]); it is an absolute position,
   deliberately exempt from the wire modulus — resync is rare, so the
   paper's tight sequence-number economy does not apply to it. The
   handshake constructors are rare too, so they skip the pool. *)
let make_sync_req ~epoch =
  { seq = 0; payload = ""; epoch; dkind = Sync_req;
    check = data_checksum ~seq:0 ~payload:"" ~epoch ~dkind:Sync_req }

let make_sync_fin ~epoch =
  { seq = 0; payload = ""; epoch; dkind = Sync_fin;
    check = data_checksum ~seq:0 ~payload:"" ~epoch ~dkind:Sync_fin }

let make_sync_pos ~epoch ~pos =
  { lo = pos; hi = pos; epoch; akind = Sync_pos;
    check = ack_checksum ~lo:pos ~hi:pos ~epoch ~akind:Sync_pos }

let data_ok (d : data) =
  d.check = data_checksum ~seq:d.seq ~payload:d.payload ~epoch:d.epoch ~dkind:d.dkind

let ack_ok (a : ack) =
  a.check = ack_checksum ~lo:a.lo ~hi:a.hi ~epoch:a.epoch ~akind:a.akind

(* Deterministic mangling for the link's [Corrupt] verdict: damage the
   message without touching the stored checksum, so validation fails.
   An empty payload leaves only the header to flip. The payload flip is
   a single [String.mapi] pass (one fresh string), not a
   bytes-of-string/bytes-to-string double copy. *)
let corrupt_data (d : data) =
  if String.length d.payload = 0 then { d with seq = d.seq lxor 1 }
  else
    { d with
      payload =
        String.mapi (fun i c -> if i = 0 then Char.chr (Char.code c lxor 0x20) else c) d.payload
    }

let corrupt_ack (a : ack) = { a with hi = a.hi lxor 1 }

(* Successive in-order block acknowledgments are adjacent ranges, so a
   layer holding one back can widen it instead of sending both: the
   union of [lo, hi] and [a.lo, a.hi] is itself a block when [a] starts
   right after [hi]. Only same-epoch [Ack]s merge (a resync frame or an
   epoch change must reach the sender as itself), and the merged span
   stays at most [cap] — the window, below the wire modulus — so its two
   ends still decode unambiguously against the sender's [na]. *)
let ack_extends ~wire_modulus ~cap ~lo ~hi ~epoch (a : ack) =
  a.akind = Ack && a.epoch = epoch
  &&
  match wire_modulus with
  | None -> a.lo = hi + 1 && a.hi - lo < cap
  | Some n -> a.lo = Ba_util.Modseq.succ ~n hi && Ba_util.Modseq.distance ~n lo a.hi < cap

let data_header_bytes = 8
let ack_bytes_block = 8
let ack_bytes_single = 4

let data_bytes d = data_header_bytes + String.length d.payload

let pp_data ppf d =
  match d.dkind with
  | Msg ->
      if d.epoch = 0 then Format.fprintf ppf "data(seq=%d,%dB)" d.seq (String.length d.payload)
      else Format.fprintf ppf "data(seq=%d,%dB,e=%d)" d.seq (String.length d.payload) d.epoch
  | Sync_req -> Format.fprintf ppf "sync-req(e=%d)" d.epoch
  | Sync_fin -> Format.fprintf ppf "sync-fin(e=%d)" d.epoch

let pp_ack ppf a =
  match a.akind with
  | Ack ->
      if a.epoch = 0 then Format.fprintf ppf "ack(%d,%d)" a.lo a.hi
      else Format.fprintf ppf "ack(%d,%d,e=%d)" a.lo a.hi a.epoch
  | Sync_pos -> Format.fprintf ppf "sync-pos(e=%d,pos=%d)" a.epoch a.lo
