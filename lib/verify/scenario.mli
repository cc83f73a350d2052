(** Scripted interleavings: drive a spec through a chosen sequence of
    transitions and watch the invariants.

    This is how the paper's Section I scenario is replayed verbatim: each
    script entry selects, by label prefix, which enabled transition fires
    next. Used by tests and by experiment T1. *)

type step = { label : string; state_repr : string; check : string option }

type outcome = {
  steps : step list;  (** one per executed transition, in order *)
  first_violation : (int * string) option;
      (** index into [steps] and the message, if any check failed *)
  failed_at : (int * string) option;
      (** script index and requested label when no enabled transition
          matched; [None] when the whole script ran *)
}

module Make (S : Ba_model.Spec_types.SPEC) : sig
  val replay : string list -> outcome
  (** [replay script] starts from [S.initial] and, for each script entry,
      fires the first enabled transition whose label starts with that
      entry. Checks [S.check] after every step. *)

  val final_state : string list -> S.state option
  (** The state after a fully applied script, [None] if it got stuck. *)
end
