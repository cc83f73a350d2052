module Fault_plan = Ba_channel.Fault_plan
module Crash_plan = Ba_proto.Crash_plan
module Harness = Ba_proto.Harness

type fault_class =
  | Bursty_loss
  | Duplication
  | Corruption
  | Outage
  | Reorder
  | Crash
  | Overload
  | Storm

let channel_classes = [ Bursty_loss; Duplication; Corruption; Outage; Reorder ]
let all_classes = channel_classes @ [ Crash; Overload; Storm ]

let class_name = function
  | Bursty_loss -> "bursty-loss"
  | Duplication -> "duplication"
  | Corruption -> "corruption"
  | Outage -> "outage"
  | Reorder -> "reorder"
  | Crash -> "crash"
  | Overload -> "overload"
  | Storm -> "storm"

let class_of_name = function
  | "bursty-loss" -> Some Bursty_loss
  | "duplication" -> Some Duplication
  | "corruption" -> Some Corruption
  | "outage" -> Some Outage
  | "reorder" -> Some Reorder
  | "crash" -> Some Crash
  | "overload" -> Some Overload
  | "storm" -> Some Storm
  | _ -> None

(* The schedules vary with the seed — outage windows shift, duplicate
   fan-out alternates — so a 50-seed sweep is 50 different adversaries,
   not one adversary with 50 dice rolls. Everything stays a pure
   function of (class, seed). *)
let plans_for fault ~seed =
  match fault with
  | Bursty_loss ->
      let ge =
        { Fault_plan.p_enter_bad = 0.04; p_exit_bad = 0.25; loss_good = 0.01; loss_bad = 0.9 }
      in
      ( Fault_plan.make ~bursty:ge (),
        Fault_plan.make
          ~bursty:{ ge with Fault_plan.p_enter_bad = 0.02; loss_bad = 0.7 }
          () )
  | Duplication ->
      let copies = 2 + (seed mod 2) in
      ( Fault_plan.make ~duplicate:0.15 ~copies (),
        Fault_plan.make ~duplicate:0.1 ~copies:2 () )
  | Corruption ->
      (Fault_plan.make ~corrupt:0.15 (), Fault_plan.make ~corrupt:0.1 ())
  | Outage ->
      (* One dark window opening one-to-several round trips into the
         transfer — early enough that even a short campaign run is still
         in flight — and long enough that a sender without timer backoff
         would pointlessly hammer the link. Both directions go dark
         together, like a real link cut. *)
      let from_tick = 150 + (97 * (seed mod 7)) in
      let until_tick = from_tick + 1200 + (150 * (seed mod 3)) in
      let out = [ { Fault_plan.from_tick; until_tick } ] in
      (Fault_plan.make ~outages:out (), Fault_plan.make ~outages:out ())
  | Reorder ->
      (* Delay spikes several windows long: late copies overtake, stale
         acknowledgments arrive after the window has moved on — the
         ambiguity the paper's introduction builds its case on. *)
      ( Fault_plan.make ~delay_spike:(0.3, 350) (),
        Fault_plan.make ~delay_spike:(0.15, 250) () )
  | Crash ->
      (* Crash is a process fault, not a channel fault: the links stay
         clean so the class tests exactly one adversary (the schedule
         lives in {!crash_plan_for}). *)
      (Fault_plan.make (), Fault_plan.make ())
  | Overload ->
      (* Overload is a resource fault: the links stay clean and the
         adversary is a seed-derived budget squeeze plus a congested
         shared queue (see {!squeeze_for}). *)
      (Fault_plan.make (), Fault_plan.make ())
  | Storm ->
      (* The storm's channel component: real bursts, but milder than the
         dedicated bursty-loss class — it lands on top of a crash
         schedule and a resource squeeze, and the composition (not any
         single ingredient at full strength) is what this class tests. *)
      let ge =
        { Fault_plan.p_enter_bad = 0.02; p_exit_bad = 0.3; loss_good = 0.005; loss_bad = 0.6 }
      in
      ( Fault_plan.make ~bursty:ge (),
        Fault_plan.make
          ~bursty:{ ge with Fault_plan.p_enter_bad = 0.01; loss_bad = 0.4 }
          () )

(* Which endpoint dies, when, and for how long all rotate with the seed,
   so the 50-seed grid covers sender-only, receiver-only and staggered
   double crashes at assorted points in the transfer. Pure data, like the
   channel plans: the printed plan is the replay key. *)
let crash_plan_for ~seed =
  let at = 120 + (90 * (seed mod 5)) in
  let down_for = 100 + (60 * (seed mod 4)) in
  match seed mod 3 with
  | 0 -> Crash_plan.make [ { Crash_plan.at; endpoint = Crash_plan.Receiver_end; down_for } ]
  | 1 -> Crash_plan.make [ { Crash_plan.at; endpoint = Crash_plan.Sender_end; down_for } ]
  | _ ->
      Crash_plan.make
        [
          { Crash_plan.at; endpoint = Crash_plan.Receiver_end; down_for };
          { Crash_plan.at = at + 400; endpoint = Crash_plan.Sender_end; down_for };
        ]

(* The overload adversary squeezes resources rather than the wire: the
   receiver's reassembly budget shrinks to a few out-of-order slots (the
   drop policy alternates with the seed between Jain's drop-new and
   drop-furthest) and the shared data path becomes a slow bounded queue
   whose tail drops punch the sequence gaps that make the budget bind.
   Like the other classes it is pure data derived from (class, seed), so
   ["seed=N fault=overload"] replays the exact squeeze. *)
type squeeze = {
  rx_slots : int;
  policy : Ba_proto.Proto_config.drop_policy;
  service_time : int;
  queue_capacity : int;
}

let squeeze_for ~seed =
  {
    rx_slots = 2 + (seed mod 3);
    policy =
      (if seed mod 2 = 0 then Ba_proto.Proto_config.Drop_new
       else Ba_proto.Proto_config.Drop_furthest);
    service_time = 10;
    queue_capacity = 4 + (seed mod 4);
  }

let apply_squeeze sq (base : Ba_proto.Proto_config.t) =
  ( { base with Ba_proto.Proto_config.rx_budget = Some sq.rx_slots; drop_policy = sq.policy },
    (sq.service_time, sq.queue_capacity) )

(* How a failure report shows the squeeze, next to the channel and
   crash plans, e.g. squeeze(rx=3,drop-new,q=10:5). A replay needs only
   the seed: the squeeze is [squeeze_for ~seed]. *)
let squeeze_to_string sq =
  Printf.sprintf "squeeze(rx=%d,%s,q=%d:%d)" sq.rx_slots
    (Ba_proto.Proto_config.drop_policy_name sq.policy)
    sq.service_time sq.queue_capacity

(* One (class, seed) incident: every ingredient the class composes, as
   pure data. This is the only place that knows which classes bring a
   crash schedule and which a squeeze. Storm composes all three
   adversaries — the crash schedule, the resource squeeze and the bursty
   channel — each the same pure function of the seed as in its
   dedicated class, so the single replay key still reproduces the whole
   composition. *)
type incident = {
  fault : fault_class;
  seed : int;
  data_plan : Fault_plan.t;
  ack_plan : Fault_plan.t;
  crash_plan : Crash_plan.t;
  squeeze : squeeze option;
}

let incident fault ~seed =
  let data_plan, ack_plan = plans_for fault ~seed in
  {
    fault;
    seed;
    data_plan;
    ack_plan;
    crash_plan = (match fault with Crash | Storm -> crash_plan_for ~seed | _ -> Crash_plan.none);
    squeeze = (match fault with Overload | Storm -> Some (squeeze_for ~seed) | _ -> None);
  }

(* A crash schedule only makes sense against a protocol implementing
   the crash-restart lifecycle. *)
let runnable protocol i =
  let (module P : Ba_proto.Protocol.S) = protocol in
  Option.is_some P.lifecycle || i.crash_plan = Crash_plan.none

type failure = { incident : incident; result : Harness.result }

type recovery = {
  restarts : int;
  resync_rounds : int;
  mean_resync_ticks : float;
  max_resync_ticks : float;
  retx_bytes : int;
}

type class_report = {
  fault : fault_class;
  runs : int;
  unsafe : int;
  incomplete : int;
  both : int;
  first_failure : failure option;
  supported : bool;
  recovery : recovery option;
}

type report = { protocol : string; classes : class_report list }

let safe (r : Harness.result) =
  r.Harness.duplicates = 0 && r.Harness.misordered = 0 && r.Harness.corrupted = 0

(* The reorder adversary spikes one-way delay up to 60 + 350 = 410
   ticks. The paper's timeout rule is only sound when
   [rto > 2 * max_transit], so the audited configurations declare that
   timing honestly — otherwise every windowed protocol "fails" for the
   uninteresting reason that its timing assumption was violated, not
   because of its sequence-number logic. Go-back-N gets the same honest
   timing: its w+1 modulus is what breaks under reordering, exactly the
   introduction's argument. *)
let robust_config =
  Ba_proto.Proto_config.make ~window:16 ~wire_modulus:(Some 32) ~rto:1000 ~max_transit:410
    ~adaptive_rto:true ()

(* The negative control for the crash class: same timing, but restarts
   come back zeroed instead of bumping their incarnation epoch — the
   configuration whose duplicate delivery the epochs exist to close. *)
let naive_restart_config =
  Ba_proto.Proto_config.make ~window:16 ~wire_modulus:(Some 32) ~rto:1000 ~max_transit:410
    ~adaptive_rto:true ~resync_epochs:false ()

let gbn_config =
  Ba_proto.Proto_config.make ~window:16 ~wire_modulus:(Some 17) ~rto:1000 ~max_transit:410 ()

(* Near-FIFO base links (constant delay): all reordering, loss and
   mangling comes from the injected fault plan, so each class tests
   exactly one adversary. In particular bounded go-back-N — sound on
   FIFO channels — survives every class except the one that actually
   reorders. *)
let run_cell ?(messages = 60) ?(config = robust_config) protocol i =
  let config, data_bottleneck =
    match i.squeeze with
    | Some sq ->
        let config, bottleneck = apply_squeeze sq config in
        (config, Some bottleneck)
    | None -> (config, None)
  in
  let delay = Ba_channel.Dist.Constant 50 in
  let result =
    Harness.run protocol ~seed:i.seed ~messages ~config ~data_delay:delay ~ack_delay:delay
      ?data_bottleneck ~data_plan:i.data_plan ~ack_plan:i.ack_plan ~crash_plan:i.crash_plan ()
  in
  let failure =
    if safe result && result.Harness.completed then None else Some { incident = i; result }
  in
  (failure, result)

let run_one ?messages ?config protocol fault ~seed =
  fst (run_cell ?messages ?config protocol (incident fault ~seed))

let default_seeds = List.init 50 (fun i -> i + 1)

let run_campaign ?messages ?config ?(seeds = default_seeds) ?(classes = all_classes) ?(jobs = 1)
    protocol =
  let (module P : Ba_proto.Protocol.S) = protocol in
  (* The campaign is a grid of independent (fault, seed) cells: each run
     builds its own engine and derives every random stream from its own
     seed, so the cells farm out to a domain pool. Pool.map_chunks
     batches neighbouring cells into one queue entry each and returns
     the outcomes in input order, which makes the fold below — and
     therefore the whole report — identical at any job count. *)
  (* A class whose incidents carry a crash schedule is reported as
     skipped, rather than silently dropped, against a protocol without
     the crash-restart lifecycle. A class composes the same ingredients
     at every seed. *)
  let supported fault = runnable protocol (incident fault ~seed:0) in
  let cells =
    List.concat_map
      (fun fault ->
        if supported fault then List.map (fun seed -> incident fault ~seed) seeds else [])
      classes
  in
  let outcomes =
    List.combine cells
      (Ba_parallel.Pool.map_chunks ~jobs (run_cell ?messages ?config protocol) cells)
  in
  let recovery_of results =
    let restarts = List.fold_left (fun a (r : Harness.result) -> a + r.Harness.restarts) 0 results in
    if restarts = 0 then None
    else begin
      let rounds =
        List.fold_left (fun a (r : Harness.result) -> a + r.Harness.resync_rounds) 0 results
      and retx_bytes =
        List.fold_left (fun a (r : Harness.result) -> a + r.Harness.retx_bytes) 0 results
      and count = ref 0
      and total = ref 0.
      and max_ticks = ref 0. in
      List.iter
        (fun (r : Harness.result) ->
          match r.Harness.resync_ticks with
          | None -> ()
          | Some s ->
              count := !count + s.Ba_util.Stats.count;
              total := !total +. (s.Ba_util.Stats.mean *. float_of_int s.Ba_util.Stats.count);
              if s.Ba_util.Stats.max > !max_ticks then max_ticks := s.Ba_util.Stats.max)
        results;
      Some
        {
          restarts;
          resync_rounds = rounds;
          mean_resync_ticks = (if !count = 0 then 0. else !total /. float_of_int !count);
          max_resync_ticks = !max_ticks;
          retx_bytes;
        }
    end
  in
  let audit fault =
    let mine = List.filter (fun ((i : incident), _) -> i.fault = fault) outcomes in
    let failures = List.filter_map (fun (_, (failure, _)) -> failure) mine in
    let count p = List.length (List.filter p failures) in
    let unsafe f = not (safe f.result) and stuck f = not f.result.Harness.completed in
    {
      fault;
      runs = (if supported fault then List.length seeds else 0);
      unsafe = count unsafe;
      incomplete = count stuck;
      both = count (fun f -> unsafe f && stuck f);
      (* Seeds are swept in the caller's order; keep the smallest
         failing one regardless. *)
      first_failure =
        List.fold_left
          (fun first f ->
            match first with
            | Some g when g.incident.seed <= f.incident.seed -> first
            | _ -> Some f)
          None failures;
      supported = supported fault;
      (* Newest first: [recovery_of] sums the float means in this order. *)
      recovery = recovery_of (List.rev_map (fun (_, (_, result)) -> result) mine);
    }
  in
  { protocol = P.name; classes = List.map audit classes }

let clean r = List.for_all (fun c -> c.unsafe = 0 && c.incomplete = 0) r.classes

let pp_failure ppf { incident = i; result } =
  Format.fprintf ppf "@[<v>seed=%d fault=%s@,data: %a@,ack:  %a" i.seed (class_name i.fault)
    Fault_plan.pp i.data_plan Fault_plan.pp i.ack_plan;
  if i.crash_plan <> Crash_plan.none then Format.fprintf ppf "@,proc: %a" Crash_plan.pp i.crash_plan;
  (match i.squeeze with
  | Some sq -> Format.fprintf ppf "@,load: %s" (squeeze_to_string sq)
  | None -> ());
  Format.fprintf ppf "@,%a@]" Harness.pp_result result

let verdict c =
  if c.unsafe = 0 && c.incomplete = 0 then "ok"
  else
    String.concat " "
      ((if c.unsafe > 0 then [ Printf.sprintf "unsafe:%d" c.unsafe ] else [])
      @ if c.incomplete > 0 then [ Printf.sprintf "stuck:%d" c.incomplete ] else [])

(* [unsafe] and [incomplete] are counts of runs with each symptom, not a
   partition: a run that is both unsafe and stuck appears in both. The
   [both=] segment makes the overlap explicit whenever it is nonzero, so
   the distinct failing-run count is unsafe + incomplete - both. *)
let pp_class_report ppf c =
  if not c.supported then
    Format.fprintf ppf "%-12s skipped (protocol not crash-tolerant)" (class_name c.fault)
  else begin
    Format.fprintf ppf "%-12s %3d runs  unsafe=%-3d incomplete=%-3d %s%s" (class_name c.fault)
      c.runs c.unsafe c.incomplete
      (if c.both > 0 then Printf.sprintf "both=%-3d " c.both else "")
      (if c.unsafe = 0 && c.incomplete = 0 then "ok" else "FAIL");
    (match c.recovery with
    | None -> ()
    | Some r ->
        Format.fprintf ppf
          "@,  recovery: restarts=%d rounds=%d resync-ticks=%.0f mean/%.0f max retx=%dB" r.restarts
          r.resync_rounds r.mean_resync_ticks r.max_resync_ticks r.retx_bytes);
    match c.first_failure with
    | None -> ()
    | Some f -> Format.fprintf ppf "@,  first failure: @[<v>%a@]" pp_failure f
  end

let pp_report ppf r =
  Format.fprintf ppf "@[<v>%s:@,%a@]" r.protocol
    (Format.pp_print_list pp_class_report)
    r.classes
