(** Binary wire codec for {!Ba_proto.Wire} frames on a real datagram
    transport.

    A UDP datagram carries either one frame or a container of frames.
    A single frame uses a fixed little-endian layout, codec version 1:

    {v
    off 0      magic 0xBA
    off 1      frame version (1)
    off 2      frame class: 0 = data, 1 = ack
    off 3      subkind tag (Msg/Sync_req/Sync_fin or Ack/Sync_pos)
    off 4..7   incarnation epoch           (u32)
    -- data --                    -- ack --
    off 8..15  seq        (i64)   lo       (i64)
    off 16..23 check      (i64)   hi       (i64)
    off 24..27 payload len (u32)  check    (i64, off 24..31)
    off 28..   payload bytes
    v}

    A container (codec version 2, frame class 2) packs the frames of
    one burst into one datagram. Each inner frame keeps its version-1
    bytes, with its own epoch and its own checksum, behind a length
    prefix:

    {v
    off 0      magic 0xBA
    off 1      codec version (2)
    off 2      frame class 2 = container
    off 3      frame count n (1..255)
    off 4..    n times: length L (u16), then L bytes of a version-1 frame
    v}

    A burst of one frame goes out as a bare version-1 frame, so a
    version-1 peer still reads it.

    The payload is length-prefixed and the prefix must account for the
    datagram exactly — a truncated or padded datagram is rejected, not
    partially parsed. Likewise a container's [n] prefixes must tile the
    datagram exactly, or the whole container is rejected. Once they do,
    each inner frame is decoded on its own: a malformed one is counted
    and skipped, and the others still arrive. Decoding never raises:
    every malformed input (short buffer, bad magic, unknown version or
    kind, negative or non-representable field, length mismatch) comes
    back as a rejection, because on a real socket "garbage arrived" is
    an ordinary event. The frame checksum travels as an opaque field — the
    codec does not recompute it, so endpoint-side
    {!Ba_proto.Wire.data_ok} validation catches in-flight corruption
    exactly as it does in simulation. *)

type frame =
  | Data of Ba_proto.Wire.data
  | Ack of Ba_proto.Wire.ack
  | Batch of { frames : frame list; malformed : int }
      (** A container: its well-formed inner frames in wire order, and
          how many inner frames were rejected. Inner frames are never
          containers. {!Driver} unrolls it, so endpoints see only
          [Data] and [Ack]. *)

val version : int
(** The codec version (2): version-1 single frames plus containers. *)

val max_payload : int
(** Largest encodable payload (60 KiB — under the UDP datagram limit
    with headers to spare). *)

val data_header_len : int
(** Bytes before the payload of a data frame (28). *)

val ack_len : int
(** Exact encoded size of an ack frame (32). *)

val max_datagram : int
(** [data_header_len + max_payload]; a receive buffer of this size
    never truncates a conforming single frame. *)

val batch_header_len : int
(** Bytes before a container's first length prefix (4). *)

val batch_prefix_len : int
(** Length prefix in front of each inner frame (2). *)

val batch_cap : int
(** Largest container a sender builds (1400 bytes, under a 1500-byte
    Ethernet MTU with IP and UDP headers). A frame that does not fit in
    a container of this size on its own is sent alone. *)

val encoded_len : frame -> int

val encode : Bytes.t -> frame -> int
(** [encode buf f] writes [f] at offset 0 and returns the encoded
    length. A [Batch] is always written as a container, even with one
    frame. Raises [Invalid_argument] when [buf] is too small, the
    payload exceeds {!max_payload}, a field is negative, or a [Batch]
    is empty, holds more than 255 frames, nests a [Batch] or has
    [malformed <> 0] — encoding failures are programming errors,
    unlike decoding ones. *)

val encode_data : Bytes.t -> Ba_proto.Wire.data -> int
(** [encode_data buf d] is [encode buf (Data d)] without building the
    [Data] wrapper: a sender encodes every frame, so it allocates
    nothing. *)

val encode_ack : Bytes.t -> Ba_proto.Wire.ack -> int
(** [encode_ack buf a] is [encode buf (Ack a)], likewise. *)

(** Packs frames that are already encoded into containers of at most
    {!batch_cap} bytes, in one buffer of that size. *)
module Packer : sig
  type t

  val create : send:(Bytes.t -> int -> unit) -> t
  (** [send buf len] transmits one datagram; it owns [buf]'s contents
      only for the duration of the call. *)

  val add : t -> Bytes.t -> int -> unit
  (** [add t src len] copies the encoded frame [src.[0..len)] into the
      held container. A frame that would overflow the cap flushes the
      held frames first, and a frame too large for any container is
      sent alone, so frames leave in the order they were added. *)

  val flush : t -> unit
  (** Send the held frames: a container for two or more, the bare
      version-1 frame for one, nothing for none. *)
end

type scratch
(** One data record and one ack record for {!decode_into} to fill, the
    [Data] and [Ack] frames that wrap them, and the reason for the last
    rejection. *)

val scratch : unit -> scratch

val decode_into : scratch -> Bytes.t -> len:int -> (frame -> 'a -> unit) -> 'a -> int
(** [decode_into s buf ~len f x] parses the first [len] bytes of [buf]
    in place and calls [f frame x] once per well-formed frame, in wire
    order: once for a bare frame, once per good inner frame of a
    container (never with a [Batch]). [frame] is one of [s]'s two
    frames, so it is borrowed for the call only: the next frame
    overwrites it, and [f] must copy any field it keeps. Its payload is
    a fresh string that [f] may keep. Returns the number of malformed
    inner frames of an accepted datagram (0 for a bare frame), or -1
    when the whole datagram is rejected, on exactly the inputs
    {!decode} returns [Error] for. Never raises (given
    [0 <= len <= Bytes.length buf]). The payload copy is its only
    allocation; [x] is there so that [f] need not be a closure built
    per datagram. *)

val decode : Bytes.t -> len:int -> (frame, string) result
(** {!decode_into} with fresh records: the frame, or a container's
    well-formed inner frames and malformed count as a [Batch], or the
    reason the datagram was rejected, for diagnostics counters. Never
    raises (given [0 <= len <= Bytes.length buf]). The returned frame is
    freshly allocated — it aliases nothing in [buf] or in any other
    result. *)

val frame_ok : frame -> bool
(** Endpoint-side integrity: the embedded checksum matches the decoded
    contents ({!Ba_proto.Wire.data_ok} / {!Ba_proto.Wire.ack_ok}); a
    [Batch] is ok when every inner frame decoded and is ok. *)
