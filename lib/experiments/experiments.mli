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

    Every experiment is deterministic given its seeds. *)

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

val f1_goodput_vs_loss : ?jobs:int -> quick:bool -> unit -> table
val f2_goodput_vs_window : ?jobs:int -> quick:bool -> unit -> table
val f3_recovery_time : ?jobs:int -> quick:bool -> unit -> table
val f4_reorder_tolerance : ?jobs:int -> quick:bool -> unit -> table
val t3_ack_overhead : ?jobs:int -> quick:bool -> unit -> table

val f6_latency : ?jobs:int -> quick:bool -> unit -> table
(** Delivery-latency percentiles: head-of-line blocking under loss, per
    protocol. Derived claim (the in-order delivery requirement shared by
    all the paper's protocols makes recovery speed visible in the tail). *)

val t4_stenning_domain : ?jobs:int -> quick:bool -> unit -> table

val f5_slot_reuse : ?jobs:int -> quick:bool -> unit -> table

val t5_piggyback : ?jobs:int -> quick:bool -> unit -> table
(** Derived: acknowledgment frames saved by piggybacking block acks on
    reverse-direction data in a duplex session ({!Blockack.Duplex}). *)

val a1_adaptive_rto : ?jobs:int -> quick:bool -> unit -> table
(** Extension ablation: fixed vs Jacobson/Karels adaptive timeout under a
    mis-estimated round trip. Not from the paper; quantifies its "accurate
    timeout mechanisms" assumption (Section VI). *)

val a2_dynamic_window : ?jobs:int -> quick:bool -> unit -> table
(** Extension ablation: Section VI's "variable size windows" remark —
    fixed vs AIMD windows through a congestible bottleneck queue. *)

val a3_fairness : ?jobs:int -> quick:bool -> unit -> table
(** Extension ablation: two flows sharing the bottleneck; AIMD converges
    to an even split where oversized fixed windows fight. *)

val s1_scaling : ?jobs:int -> quick:bool -> unit -> table
(** Scaling the multi-connection fabric: N homogeneous flows (N in 1..256,
    a subset when [quick]) of blockack-multi, go-back-N and selective
    repeat contend for one fixed-capacity bottleneck ({!Ba_proto.Fabric}).
    Reports aggregate goodput, pooled per-flow latency percentiles,
    Jain's fairness index and shared-queue drops per (N, protocol). *)

val s3_churn_soak : ?jobs:int -> quick:bool -> unit -> table
(** Churning fabric under composed storms: seed-derived arrival/departure
    schedules ({!Ba_proto.Fabric.churn}) with a memory budget below the
    lifetime sum of reservations, so admission must reclaim departed
    flows' budget for the returning cohort. Reports pre- vs post-churn
    goodput and the peak-memory/budget margin per seed. *)

val s4_sharded_scale : ?jobs:int -> quick:bool -> unit -> table
(** S1 carried two decades further: 1k -> 100k flows (smaller when
    [quick]) through the cell-partitioned fabric ({!Ba_proto.Shard}),
    the shared bottleneck realised as per-cell capacity leases
    reconciled at epoch barriers. Only deterministic columns (delivered,
    completion, ticks, goodput, lease counters); the machine-dependent
    flows/sec and bytes-per-flow are [ba_net --scale]'s stderr
    [scale-perf:] line and [ba_bench]'s [shard-100k] workload. *)

val c2_crash_recovery : ?jobs:int -> quick:bool -> unit -> table
(** Crash–restart recovery: the {!Ba_verify.Chaos.Crash} class (sender,
    receiver and staggered double crashes, seed-derived) against the
    block-ack senders with incarnation epochs on, plus the epoch-less
    "naive restart" negative control. Reports the safety/recovery
    verdict alongside the recovery bill: restarts, resync handshake
    frames, restart-to-recovery ticks and retransmitted bytes. *)

val c3_storm_matrix : ?jobs:int -> quick:bool -> unit -> table
(** The {!Ba_verify.Chaos.Storm} compound class next to its ingredients
    ([Crash] and [Overload]) for both block-ack senders: verdicts plus
    the recovery bill, showing what composing the faults adds over each
    alone. One replay key reproduces a storm ([ba_chaos --replay]). *)

val all : ?jobs:int -> quick:bool -> unit -> table list
(** All experiments in presentation order. *)

val run_all : ?jobs:int -> quick:bool -> unit -> unit
(** Generate and print every experiment. [quick] shrinks message counts
    and seed sets (useful in CI); the shapes remain the same.

    Every experiment is a grid of independent simulations, so each table
    farms its cells to a {!Ba_parallel.Pool} of [jobs] domains (default
    1). Ordered collection plus one engine and one seed-derived RNG
    stream per cell make the output byte-identical at any [jobs]. *)
