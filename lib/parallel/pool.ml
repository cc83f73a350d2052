(* A fixed-size domain pool over stdlib Domain/Mutex/Condition.

   Workers block on [work] until a chunk of tasks is queued (or shutdown
   is requested); the batch submitter also works the queue, so a pool of
   [jobs = n] never uses more than n domains and [jobs = 1] degenerates
   to plain sequential execution with no domain spawned at all.
   Determinism comes from the callers, not the pool: each task writes
   its result into its own input-order slot, and the batch is only read
   back once every slot is filled, so scheduling order is unobservable.

   Three costs of the naive pool are engineered out here:
   - the queue holds one entry per contiguous *chunk* of work, not one
     closure per element, so lock/wake/dequeue overhead is amortised;
   - submit wakes workers with one Condition.signal per queued chunk
     instead of broadcasting the whole pool awake for every batch;
   - worker domains are capped at the hardware's recommended count
     (oversubscribing a saturated machine only adds GC barriers — the
     measured 0.25x "speedup" at --jobs 4 on one core), and
     [map_chunks] runs on one long-lived process-wide pool instead of a
     spawn/join per grid. *)

type t = {
  jobs : int;  (* configured parallelism, including the caller *)
  mutex : Mutex.t;
  work : Condition.t;  (* a chunk queued, or shutdown requested *)
  finished : Condition.t;  (* [outstanding] reached zero *)
  tasks : (unit -> unit) Queue.t;  (* one entry per chunk *)
  batch : Mutex.t;  (* serialises whole batches, not individual chunks *)
  mutable outstanding : int;  (* queued + currently-running chunks *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let hardware_jobs () = max 1 (Domain.recommended_domain_count ())
let max_jobs () = 4 * hardware_jobs ()

let default_jobs () =
  match Sys.getenv_opt "BA_JOBS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> min n (max_jobs ())
      | Some _ | None -> hardware_jobs ())
  | None -> hardware_jobs ()

(* Process-wide observability: how many worker domains were ever
   spawned. Tests pin the no-oversubscription rules against this. *)
let spawned = Atomic.make 0
let spawned_domains () = Atomic.get spawned

(* True while the current domain is executing a pool task; [map_chunks]
   checks it to run inline rather than re-enter the shared pool (whose
   batch mutex is not reentrant). *)
let in_task_key = Domain.DLS.new_key (fun () -> false)

let run_task task =
  Domain.DLS.set in_task_key true;
  Fun.protect ~finally:(fun () -> Domain.DLS.set in_task_key false) task

(* Run one queued chunk outside the lock; the chunk owns its own result
   slots and traps its own exceptions, so workers never die. Only the
   batch submitter waits on [finished] (batches are serialised), so a
   single signal suffices. *)
let task_done t =
  t.outstanding <- t.outstanding - 1;
  if t.outstanding = 0 then Condition.signal t.finished

let worker t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.tasks && not t.stop do
      Condition.wait t.work t.mutex
    done;
    match Queue.take_opt t.tasks with
    | Some task ->
        Mutex.unlock t.mutex;
        run_task task;
        Mutex.lock t.mutex;
        task_done t;
        Mutex.unlock t.mutex;
        loop ()
    | None ->
        (* stop requested and the queue is drained *)
        Mutex.unlock t.mutex
  in
  loop ()

(* A pool of parallelism [jobs], already checked and clamped. *)
let create jobs =
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      finished = Condition.create ();
      tasks = Queue.create ();
      batch = Mutex.create ();
      outstanding = 0;
      stop = false;
      workers = [];
    }
  in
  (* Cap spawned domains at the hardware count: the caller is worker
     zero, extra domains beyond the cores only contend. *)
  let spawn_n = min (jobs - 1) (hardware_jobs () - 1) in
  t.workers <-
    List.init spawn_n (fun _ ->
        Atomic.incr spawned;
        Domain.spawn (fun () -> worker t));
  t

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.mutex;
  let workers = t.workers in
  t.workers <- [];
  List.iter Domain.join workers

(* The long-lived pool behind [map_chunks]. Created on first parallel
   use, reused across grids, recreated only when the requested
   parallelism changes, shut down at process exit so its domains are
   joined. *)
let shared : t option ref = ref None
let shared_guard = Mutex.create ()
let shared_at_exit = ref false

let shared_pool requested =
  Mutex.lock shared_guard;
  let pool =
    match !shared with
    | Some p when p.jobs = requested -> p
    | prev ->
        (match prev with Some p -> shutdown p | None -> ());
        let p = create requested in
        shared := Some p;
        if not !shared_at_exit then begin
          shared_at_exit := true;
          at_exit (fun () ->
              match !shared with
              | Some p ->
                  shared := None;
                  shutdown p
              | None -> ())
        end;
        p
  in
  Mutex.unlock shared_guard;
  pool

(* Submit pre-wrapped chunk tasks and help drain them. Holds [batch]
   for the whole batch, so at most one submitter per pool waits on
   [finished] at a time. *)
let exec t chunk_tasks =
  let n = Array.length chunk_tasks in
  if n > 0 then begin
    Mutex.lock t.batch;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.batch)
      (fun () ->
        Mutex.lock t.mutex;
        t.outstanding <- t.outstanding + n;
        Array.iter
          (fun task ->
            Queue.add task t.tasks;
            (* one wake per chunk: exactly as many workers as there is
               work for, never a broadcast *)
            Condition.signal t.work)
          chunk_tasks;
        (* The submitter is a worker too: drain what it can, then wait
           for the stragglers running on other domains. *)
        let rec help () =
          match Queue.take_opt t.tasks with
          | Some task ->
              Mutex.unlock t.mutex;
              run_task task;
              Mutex.lock t.mutex;
              task_done t;
              help ()
          | None ->
              if t.outstanding > 0 then begin
                Condition.wait t.finished t.mutex;
                help ()
              end
        in
        help ();
        Mutex.unlock t.mutex)
  end

(* Contiguous [lo, hi) chunk bounds: enough chunks for ~4 per worker so
   the tail balances, never more chunks than elements. *)
let chunk_bounds ~workers ?chunk n =
  let per_chunk =
    match chunk with
    | Some c -> c
    | None -> max 1 (n / (max 1 (workers * 4)))
  in
  let count = (n + per_chunk - 1) / per_chunk in
  List.init count (fun i -> (i * per_chunk, min n ((i + 1) * per_chunk)))

(* The shared pool for a [map_chunks] call, or [None] to run inline:
   effective parallelism 1, or we are already inside a pool task
   (re-entering the shared batch mutex would self-deadlock). *)
let pool_for jobs =
  let requested = match jobs with Some j -> j | None -> default_jobs () in
  if requested < 1 then invalid_arg "Pool.map_chunks: jobs must be >= 1";
  if min requested (hardware_jobs ()) <= 1 || Domain.DLS.get in_task_key then None
  else begin
    let t = shared_pool (min requested (max_jobs ())) in
    if t.workers = [] then None else Some t
  end

let map_chunks ?jobs ?chunk f tasks =
  (match chunk with
   | Some c when c < 1 -> invalid_arg "Pool.map_chunks: chunk must be >= 1"
   | _ -> ());
  match pool_for jobs with
  | None -> List.map f tasks (* the whole point: zero per-element cost *)
  | Some t ->
      let input = Array.of_list tasks in
      let n = Array.length input in
      if n = 0 then []
      else begin
        let bounds = chunk_bounds ~workers:t.jobs ?chunk n in
        let slots = Array.make (List.length bounds) None in
        (* Map a contiguous slice strictly left to right, so the first
           raising element in input order is the one that propagates. *)
        let map_slice lo hi =
          let rec go i acc =
            if i >= hi then List.rev acc else go (i + 1) (f input.(i) :: acc)
          in
          go lo []
        in
        bounds
        |> List.mapi (fun ci (lo, hi) () ->
               slots.(ci) <-
                 Some
                   (try Ok (map_slice lo hi)
                    with e -> Error (e, Printexc.get_raw_backtrace ())))
        |> Array.of_list |> exec t;
        (* First errored chunk holds the first raising element in input
           order (chunks are contiguous input ranges). *)
        Array.iter
          (function
            | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
            | Some (Ok _) | None -> ())
          slots;
        Array.to_list slots
        |> List.concat_map (function
             | Some (Ok l) -> l
             | Some (Error _) | None -> assert false)
      end
