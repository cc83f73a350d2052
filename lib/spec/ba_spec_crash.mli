(** Crash–restart model of the bounded block-acknowledgment protocol.

    Extends the bounded spec with an environment that can atomically
    crash-and-restart either endpoint, wiping its volatile state. Stable
    storage keeps only each endpoint's incarnation epoch and — via the
    application itself — the receiver's delivered count and the sender's
    outbox of issued payloads.

    Two modes:

    - [epochs = true]: frames carry incarnation epochs, stale-epoch
      frames are rejected, and a restarted endpoint rejoins through the
      REQ/POS/FIN resync handshake. The explorer proves at-most-once
      delivery in {e every} reachable state, the paper's assertions 6–8
      in every stabilized state (closure), and loss-free progress from
      every state (convergence) — the self-stabilization pair.
    - [epochs = false]: the naive restart returns zeroed into the same
      sequence space. The explorer mechanically finds the
      duplicate-delivery counterexample: stale in-flight copies of
      already-delivered data decode into the fresh acceptance window.

    A crash and its restart are collapsed into one atomic [Crash]-kind
    transition — the down window only loses frames, which the [Loss]
    transitions already model.

    The block-ack actions, refinement and checks are
    {!Ba_bounded_kernel}'s; this module adds only the epochs, the sync
    flags, REQ/POS/FIN and the crash actions. *)

module Make (_ : sig
  val w : int
  val n : int
  val limit : int
  val epochs : bool
  val max_crashes : int

  val victims : [ `Sender | `Receiver | `Both ]
  (** Which endpoint the environment may crash. Restricting the victim
      picks which of the naive mode's two symptoms the explorer
      exhibits: a crashed {e receiver} re-accepts stale copies of
      already-delivered data (duplicate delivery); a crashed {e sender}
      restarts its numbering inside the old incarnation's sequence
      space, so the receiver hands the application a payload it never
      submitted at that position (phantom delivery). *)
end) : Spec_types.SPEC

val default :
  w:int ->
  ?n:int ->
  limit:int ->
  epochs:bool ->
  ?max_crashes:int ->
  ?victims:[ `Sender | `Receiver | `Both ] ->
  unit ->
  Spec_types.spec
(** [n] defaults to [2w] (the paper's reconstruction bound);
    [max_crashes] defaults to 1; [victims] to [`Both]. *)
