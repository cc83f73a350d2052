type frame =
  | Data of Ba_proto.Wire.data
  | Ack of Ba_proto.Wire.ack
  | Batch of { frames : frame list; malformed : int }

let version = 2
let frame_version = 1
let magic = 0xBA
let max_payload = 60 * 1024
let data_header_len = 28
let ack_len = 32
let max_datagram = data_header_len + max_payload
let batch_class = 2
let batch_header_len = 4
let batch_prefix_len = 2
let batch_cap = 1400
let max_batch_frames = 255

let data_kind_tag = function
  | Ba_proto.Wire.Msg -> 0
  | Ba_proto.Wire.Sync_req -> 1
  | Ba_proto.Wire.Sync_fin -> 2

let data_kinds = Ba_proto.Wire.[| Msg; Sync_req; Sync_fin |]

let ack_kind_tag = function Ba_proto.Wire.Ack -> 0 | Ba_proto.Wire.Sync_pos -> 1
let ack_kinds = Ba_proto.Wire.[| Ack; Sync_pos |]

let rec encoded_len = function
  | Data d -> data_header_len + String.length d.Ba_proto.Wire.payload
  | Ack _ -> ack_len
  | Batch { frames; _ } ->
      List.fold_left (fun n f -> n + batch_prefix_len + encoded_len f) batch_header_len frames

(* Every integer field is non-negative by construction (sequence numbers
   come out of [Seqcodec.encode], checksums are [land max_int]-ed), so
   the sign bit doubles as a cheap decode-side sanity check. *)
let put_nat64 buf off v name =
  if v < 0 then invalid_arg (Printf.sprintf "Codec.encode: negative %s" name);
  Bytes.set_int64_le buf off (Int64.of_int v)

let put_nat32 buf off v name =
  if v < 0 || v > 0xFFFFFFFF then
    invalid_arg (Printf.sprintf "Codec.encode: %s out of u32 range" name);
  Bytes.set_int32_le buf off (Int32.of_int v)

let put_header buf off ~cls ~tag ~epoch =
  Bytes.set_uint8 buf off magic;
  Bytes.set_uint8 buf (off + 1) frame_version;
  Bytes.set_uint8 buf (off + 2) cls;
  Bytes.set_uint8 buf (off + 3) tag;
  put_nat32 buf (off + 4) epoch "epoch"

let batch_header buf ~count =
  if count < 1 || count > max_batch_frames then
    invalid_arg "Codec.encode: container frame count out of range";
  Bytes.set_uint8 buf 0 magic;
  Bytes.set_uint8 buf 1 version;
  Bytes.set_uint8 buf 2 batch_class;
  Bytes.set_uint8 buf 3 count

(* Write one v1 frame at [off]; the caller has checked the room. *)
let put_data buf off (d : Ba_proto.Wire.data) =
  let pl = String.length d.payload in
  if pl > max_payload then invalid_arg "Codec.encode: payload exceeds max_payload";
  put_header buf off ~cls:0 ~tag:(data_kind_tag d.dkind) ~epoch:d.epoch;
  put_nat64 buf (off + 8) d.seq "seq";
  put_nat64 buf (off + 16) d.check "check";
  put_nat32 buf (off + 24) pl "payload length";
  Bytes.blit_string d.payload 0 buf (off + data_header_len) pl

let put_ack buf off (a : Ba_proto.Wire.ack) =
  put_header buf off ~cls:1 ~tag:(ack_kind_tag a.akind) ~epoch:a.epoch;
  put_nat64 buf (off + 8) a.lo "lo";
  put_nat64 buf (off + 16) a.hi "hi";
  put_nat64 buf (off + 24) a.check "check"

let room buf n = if Bytes.length buf < n then invalid_arg "Codec.encode: buffer too small"

let encode_data buf (d : Ba_proto.Wire.data) =
  let n = data_header_len + String.length d.payload in
  room buf n;
  put_data buf 0 d;
  n

let encode_ack buf a =
  room buf ack_len;
  put_ack buf 0 a;
  ack_len

let encode buf = function
  | Data d -> encode_data buf d
  | Ack a -> encode_ack buf a
  | Batch { frames; malformed } as f ->
      let n = encoded_len f in
      room buf n;
      if malformed <> 0 then invalid_arg "Codec.encode: a container with malformed frames";
      batch_header buf ~count:(List.length frames);
      ignore
        (List.fold_left
           (fun off f ->
             let len = encoded_len f in
             Bytes.set_uint16_le buf off len;
             let at = off + batch_prefix_len in
             (match f with
             | Data d -> put_data buf at d
             | Ack a -> put_ack buf at a
             | Batch _ -> invalid_arg "Codec.encode: a container cannot hold a container");
             at + len)
           batch_header_len frames);
      n

module Packer = struct
  type t = {
    buf : Bytes.t;
    send : Bytes.t -> int -> unit;
    mutable off : int;  (* end of the last held frame *)
    mutable count : int;
  }

  (* A frame of at least [data_header_len] bytes keeps [count] under
     [max_batch_frames] within the cap. *)
  let create ~send = { buf = Bytes.create batch_cap; send; off = batch_header_len; count = 0 }

  let first = batch_header_len + batch_prefix_len

  let flush t =
    if t.count = 1 then begin
      let len = t.off - first in
      Bytes.blit t.buf first t.buf 0 len;
      t.send t.buf len
    end
    else if t.count > 1 then begin
      batch_header t.buf ~count:t.count;
      t.send t.buf t.off
    end;
    t.off <- batch_header_len;
    t.count <- 0

  let add t src len =
    if t.off + batch_prefix_len + len > batch_cap then flush t;
    if first + len > batch_cap then t.send src len
    else begin
      Bytes.set_uint16_le t.buf t.off len;
      Bytes.blit src 0 t.buf (t.off + batch_prefix_len) len;
      t.off <- t.off + batch_prefix_len + len;
      t.count <- t.count + 1
    end
end

(* An i64 field is acceptable iff it round-trips through the OCaml int
   it will live in and is non-negative — a negative or 2^62-ish value
   cannot have come from [encode]. Any other value reads as -1. *)
let get_nat64 buf off =
  let v64 = Bytes.get_int64_le buf off in
  let v = Int64.to_int v64 in
  if v < 0 || Int64.of_int v <> v64 then -1 else v

let get_u32 buf off = Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF

type scratch = {
  d : Ba_proto.Wire.data;
  a : Ba_proto.Wire.ack;
  data : frame;  (* [Data d] *)
  ack : frame;  (* [Ack a] *)
  mutable why : string;  (* the last rejection's reason *)
}

let scratch () =
  let d = { Ba_proto.Wire.seq = 0; payload = ""; epoch = 0; dkind = Ba_proto.Wire.Msg; check = 0 }
  and a = { Ba_proto.Wire.lo = 0; hi = 0; epoch = 0; akind = Ba_proto.Wire.Ack; check = 0 } in
  { d; a; data = Data d; ack = Ack a; why = "" }

(* Parse outcomes are ints, so reporting one allocates nothing: the
   frame was handed over, or [rejected] with the reason left in the
   scratch. *)
let accepted = 0
let rejected = -1

let reject s why =
  s.why <- why;
  rejected

(* One v1 frame occupying exactly [buf.[off .. off+len)], parsed into
   [s]'s data or ack record, which is written, and handed to [f], only
   when the whole frame is good. *)
let parse s buf ~off ~len f x =
  if len < 4 then reject s "short datagram"
  else if Bytes.get_uint8 buf off <> magic then reject s "bad magic"
  else if Bytes.get_uint8 buf (off + 1) <> frame_version then reject s "unknown codec version"
  else
    match Bytes.get_uint8 buf (off + 2) with
    | 0 ->
        let tag = Bytes.get_uint8 buf (off + 3) in
        if len < data_header_len then reject s "truncated data header"
        else if tag >= Array.length data_kinds then reject s "unknown data kind"
        else
          let seq = get_nat64 buf (off + 8) and check = get_nat64 buf (off + 16) in
          let pl = get_u32 buf (off + 24) in
          if seq < 0 || check < 0 then reject s "field out of range"
          else if pl > max_payload then reject s "payload length exceeds limit"
          else if data_header_len + pl <> len then reject s "payload length mismatch"
          else begin
            s.d.seq <- seq;
            s.d.payload <- Bytes.sub_string buf (off + data_header_len) pl;
            s.d.epoch <- get_u32 buf (off + 4);
            s.d.dkind <- data_kinds.(tag);
            s.d.check <- check;
            f s.data x;
            accepted
          end
    | 1 ->
        let tag = Bytes.get_uint8 buf (off + 3) in
        if len <> ack_len then reject s "bad ack length"
        else if tag >= Array.length ack_kinds then reject s "unknown ack kind"
        else
          let lo = get_nat64 buf (off + 8)
          and hi = get_nat64 buf (off + 16)
          and check = get_nat64 buf (off + 24) in
          if lo < 0 || hi < 0 || check < 0 then reject s "field out of range"
          else begin
            s.a.lo <- lo;
            s.a.hi <- hi;
            s.a.epoch <- get_u32 buf (off + 4);
            s.a.akind <- ack_kinds.(tag);
            s.a.check <- check;
            f s.ack x;
            accepted
          end
    | _ -> reject s "unknown frame class"

(* The prefixes must tile [batch_header_len, len) with exactly [count]
   frames; only then is any inner frame decoded. *)
let rec prefixes_tile buf ~len ~off ~left =
  if left = 0 then off = len
  else if off + batch_prefix_len > len then false
  else
    prefixes_tile buf ~len
      ~off:(off + batch_prefix_len + Bytes.get_uint16_le buf off)
      ~left:(left - 1)

let rec walk s buf f x ~off ~left ~malformed =
  if left = 0 then malformed
  else
    let n = Bytes.get_uint16_le buf off in
    let got = parse s buf ~off:(off + batch_prefix_len) ~len:n f x in
    walk s buf f x ~off:(off + batch_prefix_len + n) ~left:(left - 1)
      ~malformed:(if got = rejected then malformed + 1 else malformed)

(* A version-2 header: a container, or garbage. *)
let container_header buf ~len =
  len >= batch_header_len && Bytes.get_uint8 buf 0 = magic && Bytes.get_uint8 buf 1 = version

let decode_into s buf ~len f x =
  if container_header buf ~len then
    let count = Bytes.get_uint8 buf 3 in
    if Bytes.get_uint8 buf 2 <> batch_class then reject s "unknown frame class"
    else if count = 0 then reject s "empty container"
    else if not (prefixes_tile buf ~len ~off:batch_header_len ~left:count) then
      reject s "container length mismatch"
    else walk s buf f x ~off:batch_header_len ~left:count ~malformed:0
  else parse s buf ~off:0 ~len f x

(* A frame of its own, sharing no record with the scratch. *)
let fresh = function
  | Data d -> Data { d with Ba_proto.Wire.seq = d.Ba_proto.Wire.seq }
  | Ack a -> Ack { a with Ba_proto.Wire.lo = a.Ba_proto.Wire.lo }
  | Batch _ as b -> b

let decode buf ~len =
  let s = scratch () and got = ref [] in
  let r = decode_into s buf ~len (fun f got -> got := fresh f :: !got) got in
  if r = rejected then Error s.why
  else if container_header buf ~len then Ok (Batch { frames = List.rev !got; malformed = r })
  else Ok (List.hd !got) (* an accepted bare frame is one frame *)

let rec frame_ok = function
  | Data d -> Ba_proto.Wire.data_ok d
  | Ack a -> Ba_proto.Wire.ack_ok a
  | Batch { frames; malformed } -> malformed = 0 && List.for_all frame_ok frames
