(** {!Ba_proto.Protocol} adapters for the block-acknowledgment endpoints,
    ready to plug into the experiment harness.

    - [simple] is the Section II design: one retransmission timer.
    - [multi] is the Section IV design: a timer per outstanding message.

    Both use the {!Receiver} and honour the configured wire modulus
    (Section V) and acknowledgment coalescing. *)

val simple : Ba_proto.Protocol.t
val multi : Ba_proto.Protocol.t

val reuse : ?lead_factor:int -> unit -> Ba_proto.Protocol.t
(** The Section VI slot-reuse extension ({!Sender_multi.create} with [~lead]):
    the sender keeps at most [config.window] messages unacknowledged but
    runs ahead up to [lead_factor * window] positions; the receiver sizes
    its buffer accordingly. Requires the config's wire modulus (if any) to
    be at least [2 * lead_factor * window]. Otherwise [multi], except
    that [sender_outstanding] counts unacknowledged messages and there
    is no [lifecycle]: crash–restart with a lead band has not been
    model-checked. Default [lead_factor = 2]. *)
