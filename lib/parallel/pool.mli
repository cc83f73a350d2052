(** Deterministic domain pool for embarrassingly-parallel campaign grids.

    Every heavy workload in this repo — chaos campaigns, fabric scaling
    sweeps, multi-seed experiment replicates, sharded-fabric epochs,
    soak rounds — is a grid of independent [(seed, config)] simulations.
    Each task builds its own {!Ba_sim.Engine.t} and derives every random
    stream from its own seed, so tasks share no mutable state and can
    run on any domain in any order. {!map_chunks} farms contiguous
    chunks of a grid to worker domains but collects the results {e in
    input order}, so [map_chunks ~jobs:n f tasks] is observably
    identical to [List.map f tasks] for every [n]: parallel output is
    byte-identical to [--jobs 1].

    Three properties keep the pool cheaper than the work it schedules:

    {ul
    {- {b Chunked batches.} A batch enqueues one queue entry per
       contiguous {e chunk} of tasks, not one per element, so dispatch
       (lock, wake, dequeue) is amortised over the chunk.}
    {- {b No oversubscription.} At most
       [Domain.recommended_domain_count () - 1] worker domains are
       spawned however large [jobs] is: extra domains on a saturated
       machine only add GC synchronisation and context switches (the
       measured 0.25× "speedup" of the naive pool at [--jobs 4] on one
       core). Output is still byte-identical; only the scheduling
       changes.}
    {- {b Long-lived shared domains.} Every call reuses one
       process-wide pool (created on first parallel use, shut down at
       exit) instead of spawning and joining domains per grid.}}

    Built on stdlib [Domain]/[Mutex]/[Condition] only (no domainslib). *)

val map_chunks : ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_chunks f tasks] is [List.map f tasks] computed on the shared
    pool of parallelism [jobs] (default {!default_jobs}; above
    {!max_jobs} it is clamped), with chunk-granular scheduling: the
    input is split into contiguous chunks of [chunk] elements (default:
    enough chunks for ~4 per worker) and each chunk is one pool task
    mapping its slice, so per-element cost is a plain function call.
    The calling domain works the queue too, so with an effective
    parallelism of 1 — [jobs = 1], a one-core host, or a call from
    inside a pool task — this {e is} [List.map f tasks]: no closures, no
    queue, no domains. Exception behaviour matches [List.map]: the first
    raising element in input order propagates; later elements of its
    chunk are not evaluated (other chunks may still run to completion).
    Raises [Invalid_argument] when [jobs < 1] or [chunk < 1]. *)

val default_jobs : unit -> int
(** The [BA_JOBS] environment variable when set to a positive integer
    (clamped to {!max_jobs}), otherwise
    [Domain.recommended_domain_count ()]. *)

val max_jobs : unit -> int
(** Upper bound on useful parallelism: [4 * recommended_domain_count].
    Larger requests (a typo'd [BA_JOBS=100000]) are clamped here rather
    than honoured — beyond it extra jobs only shrink chunks without
    adding concurrency, since spawned domains are already capped at the
    hardware count. *)

val spawned_domains : unit -> int
(** Total worker domains spawned by this process so far. Observability
    hook for tests pinning the no-oversubscription guarantees: [jobs = 1]
    work must never spawn, and a second batch at the same [jobs] reuses
    the first one's domains. *)
