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

let data_kind_of_tag = function
  | 0 -> Some Ba_proto.Wire.Msg
  | 1 -> Some Ba_proto.Wire.Sync_req
  | 2 -> Some Ba_proto.Wire.Sync_fin
  | _ -> None

let ack_kind_tag = function Ba_proto.Wire.Ack -> 0 | Ba_proto.Wire.Sync_pos -> 1
let ack_kind_of_tag = function 0 -> Some Ba_proto.Wire.Ack | 1 -> Some Ba_proto.Wire.Sync_pos | _ -> None

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

(* Writes one v1 frame at [off]; the caller has checked the room. *)
let encode_single buf off = function
  | Data d ->
      let pl = String.length d.Ba_proto.Wire.payload in
      if pl > max_payload then invalid_arg "Codec.encode: payload exceeds max_payload";
      put_header buf off ~cls:0 ~tag:(data_kind_tag d.Ba_proto.Wire.dkind)
        ~epoch:d.Ba_proto.Wire.epoch;
      put_nat64 buf (off + 8) d.Ba_proto.Wire.seq "seq";
      put_nat64 buf (off + 16) d.Ba_proto.Wire.check "check";
      put_nat32 buf (off + 24) pl "payload length";
      Bytes.blit_string d.Ba_proto.Wire.payload 0 buf (off + data_header_len) pl
  | Ack a ->
      put_header buf off ~cls:1 ~tag:(ack_kind_tag a.Ba_proto.Wire.akind)
        ~epoch:a.Ba_proto.Wire.epoch;
      put_nat64 buf (off + 8) a.Ba_proto.Wire.lo "lo";
      put_nat64 buf (off + 16) a.Ba_proto.Wire.hi "hi";
      put_nat64 buf (off + 24) a.Ba_proto.Wire.check "check"
  | Batch _ -> invalid_arg "Codec.encode: a container cannot hold a container"

let encode buf f =
  let n = encoded_len f in
  if Bytes.length buf < n then invalid_arg "Codec.encode: buffer too small";
  (match f with
  | Data _ | Ack _ -> encode_single buf 0 f
  | Batch { frames; malformed } ->
      if malformed <> 0 then invalid_arg "Codec.encode: a container with malformed frames";
      batch_header buf ~count:(List.length frames);
      ignore
        (List.fold_left
           (fun off f ->
             let len = encoded_len f in
             Bytes.set_uint16_le buf off len;
             encode_single buf (off + batch_prefix_len) f;
             off + batch_prefix_len + len)
           batch_header_len frames));
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
   cannot have come from [encode]. *)
let get_nat64 buf off =
  let v64 = Bytes.get_int64_le buf off in
  let v = Int64.to_int v64 in
  if v < 0 || Int64.of_int v <> v64 then None else Some v

let get_u32 buf off = Int32.to_int (Bytes.get_int32_le buf off) land 0xFFFFFFFF

(* One v1 frame occupying exactly [buf.[off .. off+len)]. *)
let decode_single buf ~off ~len =
  if len < 4 then Error "short datagram"
  else if Bytes.get_uint8 buf off <> magic then Error "bad magic"
  else if Bytes.get_uint8 buf (off + 1) <> frame_version then Error "unknown codec version"
  else
    match Bytes.get_uint8 buf (off + 2) with
    | 0 -> (
        if len < data_header_len then Error "truncated data header"
        else
          match data_kind_of_tag (Bytes.get_uint8 buf (off + 3)) with
          | None -> Error "unknown data kind"
          | Some dkind -> (
              let epoch = get_u32 buf (off + 4) in
              match (get_nat64 buf (off + 8), get_nat64 buf (off + 16)) with
              | Some seq, Some check ->
                  let pl = get_u32 buf (off + 24) in
                  if pl > max_payload then Error "payload length exceeds limit"
                  else if data_header_len + pl <> len then Error "payload length mismatch"
                  else
                    let payload = Bytes.sub_string buf (off + data_header_len) pl in
                    Ok (Data { Ba_proto.Wire.seq; payload; epoch; dkind; check })
              | _ -> Error "field out of range"))
    | 1 -> (
        if len <> ack_len then Error "bad ack length"
        else
          match ack_kind_of_tag (Bytes.get_uint8 buf (off + 3)) with
          | None -> Error "unknown ack kind"
          | Some akind -> (
              let epoch = get_u32 buf (off + 4) in
              match
                (get_nat64 buf (off + 8), get_nat64 buf (off + 16), get_nat64 buf (off + 24))
              with
              | Some lo, Some hi, Some check ->
                  Ok (Ack { Ba_proto.Wire.lo; hi; epoch; akind; check })
              | _ -> Error "field out of range"))
    | _ -> Error "unknown frame class"

(* The prefixes must tile [batch_header_len, len) with exactly [count]
   frames; only then is any inner frame decoded. *)
let rec prefixes_tile buf ~len ~off ~left =
  if left = 0 then off = len
  else if off + batch_prefix_len > len then false
  else
    prefixes_tile buf ~len
      ~off:(off + batch_prefix_len + Bytes.get_uint16_le buf off)
      ~left:(left - 1)

let decode_batch buf ~len =
  let count = Bytes.get_uint8 buf 3 in
  if count = 0 then Error "empty container"
  else if not (prefixes_tile buf ~len ~off:batch_header_len ~left:count) then
    Error "container length mismatch"
  else
    let malformed = ref 0 in
    let rec inner off left =
      if left = 0 then []
      else
        let n = Bytes.get_uint16_le buf off in
        let next = off + batch_prefix_len + n in
        match decode_single buf ~off:(off + batch_prefix_len) ~len:n with
        | Ok f -> f :: inner next (left - 1)
        | Error _ ->
            incr malformed;
            inner next (left - 1)
    in
    let frames = inner batch_header_len count in
    Ok (Batch { frames; malformed = !malformed })

let decode buf ~len =
  if len >= batch_header_len
     && Bytes.get_uint8 buf 0 = magic
     && Bytes.get_uint8 buf 1 = version
  then
    if Bytes.get_uint8 buf 2 = batch_class then decode_batch buf ~len else Error "unknown frame class"
  else decode_single buf ~off:0 ~len

let rec frame_ok = function
  | Data d -> Ba_proto.Wire.data_ok d
  | Ack a -> Ba_proto.Wire.ack_ok a
  | Batch { frames; malformed } -> malformed = 0 && List.for_all frame_ok frames
