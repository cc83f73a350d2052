(** Section V, final refinement: bounded storage end to end.

    The finite-sequence-number protocol ({!Ba_kernel} with a modulus)
    still keeps unbounded integers internally. The paper's closing
    paragraphs sketch the last step: counters ([na], [ns], [nr], [vr])
    live modulo [n] and the boolean arrays shrink to [w] slots indexed
    modulo [w] ("[ackd[na mod w]] is set to false in action 1′",
    "[rcvd[vr mod w]] is set to false in action 4"), with every
    comparison rewritten into modular arithmetic.

    This spec performs that refinement *literally*: every guard and
    update reads only the bounded state. An unbounded ghost copy of the
    paper's original variables is carried alongside — never consulted by
    transitions — and {!Make.check} asserts at every reachable state that

    - each bounded counter equals its ghost modulo [n],
    - the [w]-slot arrays hold exactly the ghost sets folded modulo [w],
    - wire reconstruction matches the ghost (as in {!Ba_kernel}),
    - the paper's invariant (assertions 6–8) holds on the ghosts.

    Exhaustive exploration therefore proves the refinement correct for
    the explored bounds: the implementation with [O(w)] storage is
    observationally the Section II protocol.

    Requires [w | n] (slot indices [wire mod w] are only meaningful
    then); the paper's [n = 2w] satisfies it. The actions and checks are
    {!Ba_bounded_kernel}'s; this module only labels them and puts their
    frames on plain channels. *)

module Make (P : sig
  val w : int

  val n : int
  (** wire and counter modulus; must be a positive multiple of [w] *)

  val limit : int
end) : Spec_types.SPEC

val default : w:int -> ?n:int -> limit:int -> unit -> Spec_types.spec
(** [n] defaults to [2 * w]. *)
