(** Composable adversarial fault plans for the simulated link.

    The paper proves the protocol correct over channels that lose and
    reorder but never duplicate (channels are sets). Real links are
    nastier: losses arrive in bursts, routers duplicate, bits flip, and
    whole links go dark for a while. A fault plan bundles those
    behaviours so every protocol variant can be subjected to the same
    adversary; {!Link} consults the plan once per send and acts on the
    returned {!verdict}.

    All randomness is drawn from the generator supplied at
    {!instantiate}, so a (seed, plan) pair fully determines the fault
    schedule — which is what lets the chaos campaign replay a failing
    run. *)

type verdict =
  | Deliver  (** pass the message through unharmed *)
  | Drop  (** discard it *)
  | Duplicate of int
      (** deliver this many copies in total (>= 1); each copy draws its
          own propagation delay, so duplicates may also reorder *)
  | Corrupt  (** deliver a mangled copy (see {!Link.create}'s [corrupt]) *)
  | Delay of int  (** deliver after this many extra ticks *)

type gilbert_elliott = {
  p_enter_bad : float;  (** per-message P(good -> bad) *)
  p_exit_bad : float;  (** per-message P(bad -> good) *)
  loss_good : float;  (** loss probability while in the good state *)
  loss_bad : float;  (** loss probability while in the bad state *)
}
(** The classic two-state Markov burst-loss model: expected burst (bad
    run) length is [1 / p_exit_bad] messages, expected good run length
    [1 / p_enter_bad]. *)

type outage = { from_tick : int; until_tick : int }
(** The link is down during [\[from_tick, until_tick)]: every send in
    the window is discarded (counted separately, as [Outage_drops] in a link's counters). *)

type t = {
  bursty : gilbert_elliott option;
  duplicate : float;  (** probability a passing message is duplicated *)
  copies : int;  (** total copies on duplication (>= 2) *)
  corrupt : float;  (** probability a passing message is mangled *)
  delay_spike : (float * int) option;  (** (probability, extra ticks) *)
  outages : outage list;
}

val none : t
(** The empty plan: every verdict is [Deliver]. *)

val make :
  ?bursty:gilbert_elliott ->
  ?duplicate:float ->
  ?copies:int ->
  ?corrupt:float ->
  ?delay_spike:float * int ->
  ?outages:outage list ->
  unit ->
  t
(** Build and {!validate} a plan. Defaults: no burst model, [duplicate]
    and [corrupt] 0, [copies] 2, no delay spikes, no outages. *)

val validate : t -> unit
(** Raises [Invalid_argument] on out-of-range probabilities, [copies <
    2], negative delays or an outage with [until_tick <= from_tick]. *)

val in_outage : t -> now:int -> bool
(** Whether tick [now] lies in one of the plan's outages. Allocates
    nothing, so a link or shim can ask it once per frame. *)

val quiesced_after : t -> int
(** The tick past the last scheduled outage (0 when none): after this
    only the probabilistic faults remain, so a correct protocol must be
    able to finish the transfer. *)

val pp : Format.formatter -> t -> unit
(** Compact one-line rendering, e.g.
    [ge(0.050->0.200,l=0.00/0.80)+dup(0.10x2)+out[2000,4000)] — the
    replay key printed by the chaos campaign. *)

val to_string : t -> string
(** The {!pp} rendering as a string — the exact replay-key token. *)

val of_string : string -> (t, string) result
(** Parse the {!pp} replay-key format back into a plan, so a failure
    line from the chaos campaign can be fed verbatim to
    [ba_chaos --replay]. Inverse of {!pp} up to the printed precision:
    [of_string (Format.asprintf "%a" pp p)] succeeds for every valid
    [p] and renders back to the same string. Tokens join with ['+'] at
    bracket depth 0 (a [spike(p,+d)] token's inner ['+'] is kept);
    ["none"] parses to {!none}. Returns [Error msg] on an unknown
    token, a duplicated singleton fault, or a plan that fails
    {!validate}; range failures are reported against the offending
    token (e.g. [bad fault token "out[10,5)": …]). *)

(** {2 Instances}

    A plan is pure configuration; an [instance] carries the mutable
    Gilbert-Elliott state and the random stream for one link. *)

type instance

val instantiate : t -> rng:Ba_util.Rng.t -> instance
(** Validates the plan; the instance owns [rng] from here on. The chain
    starts in the good state. *)

val plan : instance -> t

val decide : instance -> verdict
(** One per-message step: advance the Gilbert-Elliott chain, then roll
    loss, duplication, corruption and delay spikes in that order (first
    match wins). Outages are {e not} consulted here — the link checks
    {!in_outage} against simulated time itself, so [decide] stays
    clock-free and testable in isolation. *)

type burst_stats = {
  steps : int;  (** total [decide] calls *)
  bad_entries : int;  (** good->bad transitions *)
  bad_steps : int;  (** steps spent in the bad state *)
}

val burst_stats : instance -> burst_stats
(** Realized burst accounting: [bad_steps / bad_entries] estimates the
    mean burst length, to be compared against [1 / p_exit_bad]. *)
