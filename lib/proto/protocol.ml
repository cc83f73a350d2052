module type S = sig
  val name : string

  type sender
  type receiver

  val create_sender :
    Ba_sim.Engine.t ->
    Proto_config.t ->
    tx:(Wire.data -> unit) ->
    next_payload:(unit -> string option) ->
    sender

  val create_receiver :
    Ba_sim.Engine.t ->
    Proto_config.t ->
    tx:(Wire.ack -> unit) ->
    deliver:(string -> unit) ->
    receiver

  val sender_on_ack : sender -> Wire.ack -> unit
  val receiver_on_data : receiver -> Wire.data -> unit
  val sender_pump : sender -> unit
  val sender_done : sender -> bool
  val sender_outstanding : sender -> int
  val sender_retransmissions : sender -> int
  val ack_wire_bytes : int
  val crash_tolerant : bool
  val sender_crash : sender -> unit
  val sender_restart : sender -> unit
  val receiver_crash : receiver -> unit
  val receiver_restart : receiver -> unit
  val sender_resync_rounds : sender -> int
  val receiver_resync_rounds : receiver -> int
  val receiver_restore : receiver -> epoch:int -> pos:int -> unit
  val sender_mem_bytes : sender -> int
  val receiver_mem_bytes : receiver -> int
  val sender_clamp_window : sender -> int -> unit
  val receiver_pressure_dropped : receiver -> int
end

type t = (module S)

module No_crash (N : sig
  val name : string

  type sender
  type receiver
end) =
struct
  let crash_tolerant = false

  let unsupported () =
    invalid_arg (Printf.sprintf "%s: crash-restart lifecycle not supported" N.name)

  let sender_crash (_ : N.sender) = unsupported ()
  let sender_restart (_ : N.sender) = unsupported ()
  let receiver_crash (_ : N.receiver) = unsupported ()
  let receiver_restart (_ : N.receiver) = unsupported ()
  let sender_resync_rounds (_ : N.sender) = 0
  let receiver_resync_rounds (_ : N.receiver) = 0
  let receiver_restore (_ : N.receiver) ~epoch:(_ : int) ~pos:(_ : int) = unsupported ()
end

module No_overload (N : sig
  type sender
  type receiver
end) =
struct
  let sender_mem_bytes (_ : N.sender) = 0
  let receiver_mem_bytes (_ : N.receiver) = 0
  let sender_clamp_window (_ : N.sender) (_ : int) = ()
  let receiver_pressure_dropped (_ : N.receiver) = 0
end
