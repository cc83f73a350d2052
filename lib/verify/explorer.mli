(** Explicit-state model checker for protocol specs.

    Breadth-first exploration of a {!Ba_model.Spec_types.SPEC} transition
    system. At every reachable state it evaluates [S.check] (the paper's
    invariant, assertions 6–8, plus variant-specific soundness checks) and
    that the progress measure never decreases along protocol transitions.
    On a violation it stops and reconstructs the shortest counterexample
    path. After a clean, uncapped exploration it can additionally verify
    the paper's progress property: from every reachable state some
    terminal state is reachable using protocol actions only (no further
    loss) — the mechanical form of Section III-C's "progress holds during
    loss-free periods". *)

type path_step = { label : string; state_repr : string }

type result = {
  spec_name : string;
  state_count : int;
  transition_count : int;
  max_depth : int;
  terminal_count : int;
  deadlock_count : int;  (** non-terminal states with no enabled action *)
  violation : (string * path_step list) option;
      (** invariant failure message and shortest path from the initial
          state ([label = "<init>"] on the first step) *)
  capped : bool;  (** exploration stopped at [max_states] *)
  live : bool option;
      (** [Some true]: every reachable state can loss-free-reach a
          terminal state. [None] when capped, violated, or not requested *)
  stuck_example : string option;
      (** a rendered state with no loss-free path to a terminal state *)
}

module Make (S : Ba_model.Spec_types.SPEC) : sig
  val run : ?max_states:int -> ?check_liveness:bool -> unit -> result
  (** Defaults: [max_states = 2_000_000], [check_liveness = true]. *)
end

val pp_result : Format.formatter -> result -> unit
(** Human-readable multi-line report, counterexample included. A capped
    run without a violation is reported as such, not as a proof. *)

val run_spec : ?max_states:int -> ?check_liveness:bool -> Ba_model.Spec_types.spec -> result
(** First-class-module convenience wrapper. *)
