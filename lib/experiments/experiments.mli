(** The paper's evaluation, reproduced.

    "Block Acknowledgment" is a design-and-proof paper with no numbered
    tables or figures, so each experiment here regenerates one of its
    quantitative or qualitative claims (the mapping is documented in
    DESIGN.md and the measured outcomes in EXPERIMENTS.md):

    - {b T1} — the introduction's failure scenario: replayed against
      bounded go-back-N (violates safety) and block acknowledgment
      (does not).
    - {b T2} — mechanised Sections III–V: exhaustive state exploration
      verifying assertions 6–8 and progress, including that [n = 2w]
      works and [n = 2w - 1] does not.
    - {b F1} — goodput vs loss rate for block ack and the baselines
      (the "maintains the data transmission capability" claim).
    - {b F2} — goodput vs window size.
    - {b F3} — recovery time after a lost block acknowledgment covering
      [b] messages: the Section II single timer pays ~[b * rto], the
      Section IV per-message timers pay ~[rto] (Section IV's claim).
    - {b F4} — tolerance of reorder: goodput vs delay jitter.
    - {b T3} — acknowledgment economy: acks sent per message delivered
      and ack bytes per payload byte (Section VI's "small added
      expense").
    - {b T4} — the Stenning/Lam–Shankar real-time constraint: goodput
      vs sequence-number-domain size (the introduction's "adversely
      affect the rate of data transfer" claim).
    - {b F5} — the Section VI slot-reuse extension vs the plain
      protocol.
    - {b F6}, {b T5} — derived: delivery-latency tails per protocol, and
      acknowledgments saved by piggybacking in a duplex session.
    - {b A1}–{b A3} — extension ablations: adaptive timeouts, AIMD
      windows through a bottleneck, and two flows sharing it.
    - {b S1}, {b S3}, {b S4} — the multi-connection fabric: scaling to
      256 flows, churn under a memory budget, and the sharded fabric to
      100k flows.
    - {b C1}–{b C3} — chaos: every protocol against every channel fault
      class, crash recovery, and compound storms.
    - {b N1} — the simulator against the real-socket endpoint stack
      run on virtual time.

    A comment above each table's function in the implementation says
    what it measures. Every experiment is deterministic given its
    seeds. *)

type table = {
  id : string;  (** e.g. "F3" *)
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;  (** expectations/caveats printed under the table *)
}

val t1_intro_scenario : unit -> table
val t2_verification : ?jobs:int -> quick:bool -> unit -> table

val t2_verdict : expect_ok:bool -> Ba_verify.Explorer.result -> string
(** T2's "vs paper" cell: ["as proven"] when a spec the paper proves
    verified without hitting the state cap, or a spec it refutes yielded
    a counterexample; ["CAPPED"] when the cap cut a proof short. *)

val f3_recovery_time : ?jobs:int -> quick:bool -> unit -> table
val f5_slot_reuse : ?jobs:int -> quick:bool -> unit -> table

val s1_scaling : ?jobs:int -> quick:bool -> unit -> table
(** Scaling the multi-connection fabric: N homogeneous flows (N in 1..256,
    a subset when [quick]) of blockack-multi, go-back-N and selective
    repeat contend for one fixed-capacity bottleneck ({!Ba_proto.Fabric}).
    Reports aggregate goodput, pooled per-flow latency percentiles,
    Jain's fairness index and shared-queue drops per (N, protocol). *)

val all : ?jobs:int -> quick:bool -> unit -> table list
(** All experiments in presentation order. *)

val run_all : ?jobs:int -> quick:bool -> unit -> unit
(** Generate and print every experiment. [quick] shrinks message counts
    and seed sets (useful in CI); the shapes remain the same.

    Every experiment is a grid of independent simulations, so each table
    farms its cells to a {!Ba_parallel.Pool} of [jobs] domains (default
    1). Ordered collection plus one engine and one seed-derived RNG
    stream per cell make the output byte-identical at any [jobs]. *)
