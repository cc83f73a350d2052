(** The single source of protocol names.

    Every CLI and experiment that maps a user-facing name to a
    {!Ba_proto.Protocol.t} resolves it here — [ba_sim], [ba_net],
    [ba_chaos] and the experiment tables all see the same spelling, the
    same aliases, and the same unknown-name error. *)

type entry = {
  name : string;  (** canonical CLI name *)
  aliases : string list;  (** accepted alternatives (e.g. ["blockack"]) *)
  summary : string;  (** one-line description for listings *)
  robust : bool;
      (** audited as robust by the chaos campaign: safe {e and} recovering
          under every {!Ba_verify.Chaos} fault class. [blockack-simple]
          is safe but recovers serially, so it is not in the audited
          set. *)
  protocol : Ba_proto.Protocol.t;
  default_modulus : window:int -> int option;
      (** the wire sequence-number modulus this protocol needs for a
          given window ([2w] for block acknowledgment per the paper's
          reconstruction bound, [4w] for slot reuse's doubled flight
          band, [None] = unbounded). *)
}

val all : entry list
(** Every registered protocol, in presentation order. *)

val names : string list
(** Canonical names of {!all}, same order. *)

val robust : entry list
(** The chaos-audited subset of {!all}. *)

val find : string -> entry option
(** Resolve a canonical name or alias. *)

val parse : string -> (entry, string) result
(** Like {!find}, but the error is the canonical unknown-name message
    (listing every valid name) that all CLIs print. *)

val config :
  ?window:int ->
  ?rto:int ->
  ?modulus:int ->
  ?ack_coalesce:int ->
  ?max_transit:int ->
  ?adaptive_rto:bool ->
  entry ->
  unit ->
  Ba_proto.Proto_config.t
(** A {!Ba_proto.Proto_config.t} tuned to the entry: [modulus] defaults
    to the protocol's {!type-entry.default_modulus} for the chosen
    [window] (default 16); everything else falls through to
    {!Ba_proto.Proto_config.make}. *)

val pp_list : Format.formatter -> unit -> unit
(** The [--list-protocols] table: one line per entry with summary and
    aliases. *)
