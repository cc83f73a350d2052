(** The one place a layer holds block acknowledgments back and widens
    them: the paper's ack names a range [(m, n)], so two adjacent blocks
    go out as one ({!Wire.ack_extends}). The duplex piggyback hold and
    the UDP server's per-drain merge are both this hold.

    It keeps one held range and flushes it from an engine slot, built on
    the first hold, [delay] ticks after the latest offer. At [delay = 0]
    the range leaves at the end of the current tick: an offer that finds
    the slot armed leaves it where it is, so the flush keeps its place
    among the tick's events. *)

type t

val create :
  Ba_sim.Engine.t ->
  wire_modulus:int option ->
  cap:int ->
  delay:int ->
  emit:(Wire.ack -> unit) ->
  t
(** [cap] bounds a merged span (the window). [emit] sends one ack; the
    record it gets is the hold's own or the offered POS, so [emit] must
    copy it to keep it past the call. *)

val offer : t -> Wire.ack -> unit
(** Widen the held range by [a] when it extends it; otherwise flush the
    held range and hold [a]. A POS is never held: it goes to [emit]
    right after the flush. [a] itself is not kept. *)

val take : t -> Wire.ack option
(** The held range as a fresh ack, with its flush cancelled: the
    piggyback path, which carries it on a data frame instead. *)
