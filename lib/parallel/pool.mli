(** Deterministic domain pool for embarrassingly-parallel campaign grids.

    Every heavy workload in this repo — chaos campaigns, fabric scaling
    sweeps, multi-seed experiment replicates, sharded-fabric epochs — is
    a grid of independent [(seed, config)] simulations. Each task builds
    its own {!Ba_sim.Engine.t} and derives every random stream from its
    own seed, so tasks share no mutable state and can run on any domain
    in any order. The pool exploits that: tasks are farmed to worker
    domains, but results are {e collected in input order}, so
    [map ~jobs:n f tasks] is observably identical to [List.map f tasks]
    for every [n] — parallel output is byte-identical to [--jobs 1].

    Three properties keep the pool cheaper than the work it schedules:

    {ul
    {- {b Chunked batches.} A batch enqueues one queue entry per
       contiguous {e chunk} of tasks, not one per element, so dispatch
       (lock, wake, dequeue) is amortised over the chunk.}
    {- {b No oversubscription.} [create ~jobs:n] spawns at most
       [Domain.recommended_domain_count () - 1] worker domains however
       large [n] is: extra domains on a saturated machine only add GC
       synchronisation and context switches (the measured 0.25×
       "speedup" of the naive pool at [--jobs 4] on one core). [jobs]
       still reports the configured parallelism and output is still
       byte-identical — only the scheduling changes.}
    {- {b Long-lived shared domains.} [map]/[map_chunks] without an
       explicit pool reuse one process-wide pool (created on first use,
       shut down at exit) instead of spawning and joining domains per
       grid.}}

    Built on stdlib [Domain]/[Mutex]/[Condition] only (no domainslib). *)

type t
(** A fixed-size pool of worker domains plus the calling domain. *)

val create : ?jobs:int -> unit -> t
(** [create ~jobs ()] builds a pool of parallelism [jobs] (default
    {!default_jobs}), spawning [min (jobs - 1)
    (Domain.recommended_domain_count () - 1)] worker domains; the domain
    that submits a batch participates as a worker, so [jobs = 1] spawns
    nothing and runs every task inline, in order. [jobs] above
    {!max_jobs} is clamped. Raises [Invalid_argument] when [jobs < 1]. *)

val jobs : t -> int
(** Parallelism the pool was created with (including the caller). *)

val shutdown : t -> unit
(** Drain queued tasks, stop the workers and join them. Idempotent.
    A pool that is never shut down leaks its domains. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool f] runs [f] on a fresh pool and shuts it down afterwards,
    whether [f] returns or raises. *)

val run : t -> (unit -> 'a) list -> 'a list
(** [run pool thunks] executes every thunk (concurrently, up to
    {!jobs}, enqueued as chunks) and returns their results in input
    order. If any thunk raised, the whole batch still runs to completion
    and then the exception of the {e first} raising thunk in input order
    is re-raised with its original backtrace — the same exception
    [List.map] would have surfaced. Batches on one pool are serialised;
    submitting from a worker task deadlocks (don't nest [run] on the
    same pool — the implicit shared pool used by [map]/[map_chunks]
    detects nesting and degrades to inline execution instead). *)

val map : ?pool:t -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map f tasks] is [List.map f tasks] computed on [pool] when given,
    otherwise on the shared pool of [jobs] (default {!default_jobs}).
    Order and exception behaviour are exactly {!run}'s. Allocates one
    thunk per element; prefer {!map_chunks} on large grids. *)

val map_chunks : ?pool:t -> ?jobs:int -> ?chunk:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_chunks f tasks] is [List.map f tasks] with chunk-granular
    scheduling: the input is split into contiguous chunks of [chunk]
    elements (default: enough chunks for ~4 per worker) and each chunk
    is one pool task mapping its slice, so per-element cost is a plain
    function call. With an effective parallelism of 1 this {e is}
    [List.map f tasks] — no closures, no queue, no domains. Exception
    behaviour matches [List.map]: the first raising element in input
    order propagates; later elements of its chunk are not evaluated
    (other chunks may still run to completion). *)

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
(** Total worker domains spawned by this process so far (all pools,
    including the shared one). Observability hook for tests pinning the
    no-oversubscription guarantees: [jobs = 1] work must never spawn. *)

