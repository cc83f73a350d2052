(** High-level facade: a ready-made simulated connection.

    Bundles an engine, two lossy links and a block-acknowledgment
    sender/receiver pair behind a queue-and-callback API, so an
    application can exercise the protocol without touching the plumbing:

    {[
      let conn =
        Blockack.Connection.create ~data_loss:0.1
          ~on_receive:(fun msg -> print_endline msg) ()
      in
      Blockack.Connection.send conn "hello";
      Blockack.Connection.send conn "world";
      Blockack.Connection.run conn            (* drive to quiescence *)
    ]}

    Messages are delivered to [on_receive] in submission order, exactly
    once, regardless of loss and reorder on the simulated links.

    The sender is Section IV's {!Sender_multi}, a timer per outstanding
    message. Section II's single-timer sender runs as the
    {!Protocols.simple} protocol. *)

type t

type stats = {
  submitted : int;
  delivered : int;
  in_flight : int;  (** submitted but not yet delivered *)
  data_sent : int;
  data_dropped : int;
  acks_sent : int;  (** block acknowledgments sent; POS frames excluded *)
  retransmissions : int;
  ticks : int;
}

val create :
  ?seed:int ->
  ?config:Config.t ->
  ?data_loss:float ->
  ?ack_loss:float ->
  ?data_delay:Ba_channel.Dist.t ->
  ?ack_delay:Ba_channel.Dist.t ->
  on_receive:(string -> unit) ->
  unit ->
  t
(** Defaults: seed 42, {!Config.default} with wire modulus [2 * window],
    lossless links with delay [Uniform (40, 60)]. *)

val send : t -> string -> unit
(** Queue a message for transmission; it enters the window as soon as
    there is room. *)

val run : ?until:int -> t -> unit
(** Advance the simulation until quiescent (everything delivered and
    acknowledged) or until the given absolute tick. *)

val stats : t -> stats
val idle : t -> bool
(** Everything submitted has been delivered and acknowledged. *)

(** {2 Crash–restart}

    Fault one endpoint's process mid-transfer. [crash_*] wipes that
    side's volatile state (window buffers, timers, RTT estimator, the
    receiver's out-of-order buffer); [restart_*] brings it back, and —
    when the config keeps [resync_epochs] on (the default) — runs the
    incarnation-epoch resync handshake before normal traffic resumes,
    so delivery stays exactly-once and in order across the outage.
    [restart_sender] also re-pumps, so queued payloads resume without a
    fresh {!send}. Useful with [run ~until] to drive the simulation to
    the chosen crash tick. *)

val crash_sender : t -> unit
val restart_sender : t -> unit
val crash_receiver : t -> unit
val restart_receiver : t -> unit
