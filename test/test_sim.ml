(* Tests for the discrete-event engine and timers. *)

let check = Alcotest.check

module Engine = Ba_sim.Engine
module Timer = Ba_sim.Timer

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_starts_at_zero () =
  let e = Engine.create () in
  check Alcotest.int "t=0" 0 (Engine.now e)

let test_engine_event_order () =
  let e = Engine.create () in
  let order = ref [] in
  ignore (Engine.schedule e ~delay:30 (fun () -> order := 3 :: !order));
  ignore (Engine.schedule e ~delay:10 (fun () -> order := 1 :: !order));
  ignore (Engine.schedule e ~delay:20 (fun () -> order := 2 :: !order));
  Engine.run e;
  check (Alcotest.list Alcotest.int) "time order" [ 1; 2; 3 ] (List.rev !order);
  check Alcotest.int "clock at last event" 30 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    ignore (Engine.schedule e ~delay:10 (fun () -> order := i :: !order))
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "FIFO at same tick" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore
    (Engine.schedule e ~delay:5 (fun () ->
         fired := ("outer", Engine.now e) :: !fired;
         ignore (Engine.schedule e ~delay:7 (fun () -> fired := ("inner", Engine.now e) :: !fired))));
  Engine.run e;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "nested event fires later"
    [ ("outer", 5); ("inner", 12) ]
    (List.rev !fired)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let h = Engine.schedule e ~delay:10 (fun () -> fired := true) in
  check Alcotest.bool "pending before" true (Engine.is_pending h);
  Engine.cancel h;
  check Alcotest.bool "not pending after" false (Engine.is_pending h);
  Engine.run e;
  check Alcotest.bool "cancelled did not fire" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref [] in
  ignore (Engine.schedule e ~delay:10 (fun () -> fired := 10 :: !fired));
  ignore (Engine.schedule e ~delay:100 (fun () -> fired := 100 :: !fired));
  Engine.run ~until:50 e;
  check (Alcotest.list Alcotest.int) "only early event" [ 10 ] (List.rev !fired);
  check Alcotest.int "clock advanced to horizon" 50 (Engine.now e);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "late event after resume" [ 10; 100 ] (List.rev !fired)

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore (Engine.schedule e ~delay:1 (fun () -> incr count))
  done;
  Engine.run ~max_events:4 e;
  check Alcotest.int "budget respected" 4 !count

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~delay:i (fun () ->
        incr count;
        if !count = 3 then Engine.stop e))
  done;
  Engine.run e;
  check Alcotest.int "stopped mid-run" 3 !count;
  Engine.run e;
  check Alcotest.int "resumable" 10 !count

let test_engine_step () =
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.schedule e ~delay:1 (fun () -> incr fired));
  ignore (Engine.schedule e ~delay:2 (fun () -> incr fired));
  check Alcotest.bool "step fires one" true (Engine.step e);
  check Alcotest.int "one fired" 1 !fired;
  check Alcotest.bool "step fires second" true (Engine.step e);
  check Alcotest.bool "empty returns false" false (Engine.step e)

let test_engine_past_schedule_rejected () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~delay:10 (fun () -> ()));
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> ignore (Engine.schedule_at e ~at:5 (fun () -> ())));
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> ignore (Engine.schedule e ~delay:(-1) (fun () -> ())))

let test_engine_pending_count () =
  let e = Engine.create () in
  let h1 = Engine.schedule e ~delay:10 (fun () -> ()) in
  let _h2 = Engine.schedule e ~delay:20 (fun () -> ()) in
  check Alcotest.int "two pending" 2 (Engine.pending_events e);
  Engine.cancel h1;
  check Alcotest.int "one pending after cancel" 1 (Engine.pending_events e);
  Engine.run e;
  check Alcotest.int "none pending after run" 0 (Engine.pending_events e)

(* The pending counter must stay exact across arbitrary interleavings of
   schedule / cancel / fire — it is maintained incrementally (O(1) reads),
   so any drift would go unnoticed by the hot path itself. *)
let test_engine_pending_incremental () =
  let e = Engine.create () in
  let handles = Array.init 100 (fun i -> Engine.schedule e ~delay:(10 + i) (fun () -> ())) in
  check Alcotest.int "all scheduled" 100 (Engine.pending_events e);
  for i = 0 to 49 do
    Engine.cancel handles.(2 * i)
  done;
  check Alcotest.int "half cancelled" 50 (Engine.pending_events e);
  (* Double-cancel must not double-count. *)
  Engine.cancel handles.(0);
  check Alcotest.int "idempotent cancel" 50 (Engine.pending_events e);
  Engine.run ~max_events:20 e;
  check Alcotest.int "fired events drain the count" 30 (Engine.pending_events e);
  (* Cancel-after-fire is a no-op on the counter. *)
  Engine.cancel handles.(1);
  check Alcotest.int "cancel of fired event ignored" 30 (Engine.pending_events e);
  ignore (Engine.schedule e ~delay:1000 (fun () -> ()));
  check Alcotest.int "schedule adds" 31 (Engine.pending_events e);
  Engine.run e;
  check Alcotest.int "empty at the end" 0 (Engine.pending_events e);
  check Alcotest.int "heap fully drained" 0 (Engine.queue_length e)

let test_engine_compaction () =
  let e = Engine.create () in
  let n = 10_000 in
  let fired = ref 0 in
  let handles = Array.init n (fun i -> Engine.schedule e ~delay:(1 + i) (fun () -> incr fired)) in
  let keep = 16 in
  (* Cancel everything but a few: corpses vastly outnumber survivors, so
     the engine must rebuild the heap instead of hoarding dead entries. *)
  for i = keep to n - 1 do
    Engine.cancel handles.(i)
  done;
  check Alcotest.int "live count" keep (Engine.pending_events e);
  check Alcotest.bool
    (Printf.sprintf "heap compacted (len %d)" (Engine.queue_length e))
    true
    (Engine.queue_length e < n / 2);
  check Alcotest.bool "no live event lost" true (Engine.queue_length e >= keep);
  Engine.run e;
  check Alcotest.int "exactly the survivors fired" keep !fired;
  check Alcotest.int "clock at last survivor" keep (Engine.now e)

let test_engine_compaction_keeps_order () =
  let e = Engine.create () in
  let fired = ref [] in
  (* Many same-tick events: FIFO among equals must survive a compaction
     triggered between scheduling and firing. *)
  let keepers = List.init 8 (fun i -> i) in
  List.iter
    (fun i -> ignore (Engine.schedule e ~delay:10 (fun () -> fired := i :: !fired)))
    keepers;
  let victims = Array.init 2_000 (fun _ -> Engine.schedule e ~delay:5 (fun () -> ())) in
  Array.iter Engine.cancel victims;
  check Alcotest.bool "compacted" true (Engine.queue_length e < 100);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "FIFO preserved across rebuild" keepers (List.rev !fired)

let test_engine_run_skips_cancelled_heads () =
  (* run and step share one corpse-skipping path (live_head); after a
     partial run that discards cancelled heads, the O(1) pending counter
     and the physical heap length must agree again. *)
  let e = Engine.create () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  let h1 = Engine.schedule e ~delay:1 (note 1) in
  let h2 = Engine.schedule e ~delay:2 (note 2) in
  let _h3 = Engine.schedule e ~delay:3 (note 3) in
  let _h4 = Engine.schedule e ~delay:4 (note 4) in
  Engine.cancel h1;
  Engine.cancel h2;
  check Alcotest.int "pending after cancel" 2 (Engine.pending_events e);
  check Alcotest.int "corpses still queued" 4 (Engine.queue_length e);
  (* Stops before tick 4: the run must pop both corpses to reach the
     tick-3 survivor, then leave exactly the tick-4 event queued. *)
  Engine.run ~until:3 e;
  check Alcotest.(list int) "only survivor fired" [ 3 ] !fired;
  check Alcotest.int "pending after partial run" 1 (Engine.pending_events e);
  check Alcotest.int "queue matches pending (corpses gone)" 1 (Engine.queue_length e);
  Engine.run e;
  check Alcotest.(list int) "remaining survivor fired" [ 4; 3 ] !fired;
  check Alcotest.int "drained pending" 0 (Engine.pending_events e);
  check Alcotest.int "drained queue" 0 (Engine.queue_length e)

let test_engine_step_skips_cancelled_heads () =
  let e = Engine.create () in
  let fired = ref 0 in
  let a = Engine.schedule e ~delay:1 ignore in
  let b = Engine.schedule e ~delay:2 ignore in
  let _c = Engine.schedule e ~delay:3 (fun () -> incr fired) in
  Engine.cancel a;
  Engine.cancel b;
  check Alcotest.bool "step fires past corpses" true (Engine.step e);
  check Alcotest.int "survivor fired" 1 !fired;
  check Alcotest.int "clock at survivor" 3 (Engine.now e);
  check Alcotest.int "queue drained" 0 (Engine.queue_length e);
  check Alcotest.int "pending drained" 0 (Engine.pending_events e);
  check Alcotest.bool "no more events" false (Engine.step e)

let test_engine_determinism () =
  let trace seed =
    let e = Engine.create ~seed () in
    let log = ref [] in
    let rec churn () =
      if Engine.now e < 500 then begin
        let d = 1 + Ba_util.Rng.int (Engine.rng e) 20 in
        log := (Engine.now e, d) :: !log;
        ignore (Engine.schedule e ~delay:d churn)
      end
    in
    churn ();
    Engine.run e;
    !log
  in
  check Alcotest.bool "same seed same trace" true (trace 5 = trace 5);
  check Alcotest.bool "different seed different trace" true (trace 5 <> trace 6)

(* ------------------------------------------------------------------ *)
(* Timer *)

let test_timer_fires_once () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Timer.create e ~duration:25 (fun () -> incr fired) in
  Timer.start t;
  Engine.run e;
  check Alcotest.int "fired once" 1 !fired;
  check Alcotest.int "at duration" 25 (Engine.now e)

let test_timer_restart_extends () =
  let e = Engine.create () in
  let fired_at = ref (-1) in
  let t = Timer.create e ~duration:30 (fun () -> fired_at := Engine.now e) in
  Timer.start t;
  ignore (Engine.schedule e ~delay:20 (fun () -> Timer.start t));
  Engine.run e;
  check Alcotest.int "restart pushed expiry" 50 !fired_at

let test_timer_stop () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Timer.create e ~duration:10 (fun () -> fired := true) in
  Timer.start t;
  Timer.stop t;
  Engine.run e;
  check Alcotest.bool "stopped" false !fired;
  check Alcotest.bool "not armed" false (Timer.is_armed t)

let test_timer_start_for () =
  let e = Engine.create () in
  let fired_at = ref (-1) in
  let t = Timer.create e ~duration:100 (fun () -> fired_at := Engine.now e) in
  Timer.start_for t 7;
  Engine.run e;
  check Alcotest.int "one-off duration" 7 !fired_at;
  check Alcotest.int "default unchanged" 100 (Timer.duration t)

let test_timer_set_duration () =
  let e = Engine.create () in
  let fired_at = ref (-1) in
  let t = Timer.create e ~duration:100 (fun () -> fired_at := Engine.now e) in
  Timer.set_duration t 40;
  Timer.start t;
  Engine.run e;
  check Alcotest.int "new duration" 40 !fired_at

let test_timer_remaining () =
  let e = Engine.create () in
  let t = Timer.create e ~duration:50 (fun () -> ()) in
  check (Alcotest.option Alcotest.int) "stopped: none" None (Timer.remaining t);
  Timer.start t;
  check (Alcotest.option Alcotest.int) "full remaining" (Some 50) (Timer.remaining t);
  ignore
    (Engine.schedule e ~delay:20 (fun () ->
         check (Alcotest.option Alcotest.int) "partial remaining" (Some 30) (Timer.remaining t)));
  Engine.run e

let test_timer_rearm_in_callback () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec t =
    lazy
      (Timer.create e ~duration:10 (fun () ->
           incr count;
           if !count < 3 then Timer.start (Lazy.force t)))
  in
  Timer.start (Lazy.force t);
  Engine.run e;
  check Alcotest.int "periodic rearm" 3 !count;
  check Alcotest.int "final time" 30 (Engine.now e)

(* ------------------------------------------------------------------ *)
(* Keyed slots: one slot standing for many logical timers *)

type timer_op =
  | Arm of int * int  (* timer, delay *)
  | Cancel of int
  | Other of int  (* an unrelated [schedule_fn] event, delay *)

(* A script runs [ops] from one scheduled event at each listed tick. A firing
   timer [i] re-arms itself once, after [rearm.(i)] ticks, when that is
   non-negative. *)
type script = { k : int; rearm : int array; steps : (int * timer_op list) list }

let pp_op = function
  | Arm (i, d) -> Printf.sprintf "arm %d +%d" i d
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Other d -> Printf.sprintf "other +%d" d

let pp_script s =
  Printf.sprintf "k=%d rearm=[%s] %s" s.k
    (String.concat ";" (Array.to_list (Array.map string_of_int s.rearm)))
    (String.concat " | "
       (List.map
          (fun (tick, ops) -> Printf.sprintf "@%d: %s" tick (String.concat ", " (List.map pp_op ops)))
          s.steps))

let gen_script =
  let open QCheck.Gen in
  int_range 1 5 >>= fun k ->
  let op =
    frequency
      [
        (4, map2 (fun i d -> Arm (i, d)) (int_bound (k - 1)) (int_bound 6));
        (2, map (fun i -> Cancel i) (int_bound (k - 1)));
        (3, map (fun d -> Other d) (int_bound 6));
      ]
  in
  map2
    (fun rearm steps -> { k; rearm; steps })
    (array_repeat k (int_range (-1) 4))
    (list_size (int_range 1 8) (pair (int_bound 12) (list_size (int_range 1 4) op)))

(* Drive a script through a timer implementation and log what fires, in
   order, as (tick, label): label [i] is timer [i], [-1 - j] is the [j]th
   unrelated event. *)
let run_script s ~make =
  let e = Engine.create () in
  let log = ref [] in
  let rearmed = Array.make s.k false in
  let arm_ref = ref (fun (_ : int) (_ : int) -> ()) in
  let on_fire i =
    log := (Engine.now e, i) :: !log;
    if s.rearm.(i) >= 0 && not rearmed.(i) then begin
      rearmed.(i) <- true;
      !arm_ref i s.rearm.(i)
    end
  in
  let arm, cancel = make e s.k on_fire in
  arm_ref := arm;
  let others = ref 0 in
  let other j = log := (Engine.now e, -1 - j) :: !log in
  let run_op = function
    | Arm (i, d) -> arm i d
    | Cancel i -> cancel i
    | Other d ->
        Engine.schedule_fn e ~delay:d other !others;
        incr others
  in
  List.iter
    (fun (tick, ops) -> ignore (Engine.schedule_at e ~at:tick (fun () -> List.iter run_op ops)))
    s.steps;
  Engine.run e;
  List.rev !log

(* One plain slot per timer. *)
let plain_timers e k on_fire =
  let slots = Array.init k (fun i -> Engine.slot_create e (fun () -> on_fire i)) in
  ((fun i d -> Engine.slot_arm slots.(i) ~delay:d), fun i -> Engine.slot_cancel slots.(i))

(* One keyed slot over per-timer (deadline, stamp) columns, re-armed at
   the earliest key after every change. *)
let keyed_timers e k on_fire =
  let deadline = Array.make k max_int in
  let stamp = Array.make k 0 in
  let armed = ref (-1) in
  let slot_ref = ref None in
  let slot () = Option.get !slot_ref in
  let rescan () =
    armed := -1;
    for i = 0 to k - 1 do
      if
        deadline.(i) < max_int
        && (!armed < 0
           || deadline.(i) < deadline.(!armed)
           || (deadline.(i) = deadline.(!armed) && stamp.(i) < stamp.(!armed)))
      then armed := i
    done;
    if !armed < 0 then Engine.slot_cancel (slot ())
    else Engine.slot_arm_keyed (slot ()) ~at:deadline.(!armed) ~stamp:stamp.(!armed)
  in
  slot_ref :=
    Some
      (Engine.slot_create e (fun () ->
           let i = !armed in
           deadline.(i) <- max_int;
           rescan ();
           on_fire i));
  let arm i d =
    deadline.(i) <- Engine.now e + d;
    stamp.(i) <- Engine.take_stamp e;
    rescan ()
  in
  let cancel i =
    deadline.(i) <- max_int;
    rescan ()
  in
  (arm, cancel)

let prop_keyed_slot_equals_plain_slots =
  QCheck.Test.make ~count:500 ~name:"one keyed slot fires like k plain slots"
    (QCheck.make ~print:pp_script gen_script)
    (fun s -> run_script s ~make:plain_timers = run_script s ~make:keyed_timers)

let test_keyed_arm_rejects_past () =
  let e = Engine.create () in
  let slot = Engine.slot_create e (fun () -> ()) in
  ignore (Engine.schedule e ~delay:10 (fun () -> ()));
  Engine.run e;
  let stamp = Engine.take_stamp e in
  Alcotest.check_raises "past tick" (Invalid_argument "Engine.slot_arm_keyed: time in the past")
    (fun () -> Engine.slot_arm_keyed slot ~at:5 ~stamp);
  check Alcotest.bool "still disarmed" false (Engine.slot_armed slot);
  Engine.slot_arm_keyed slot ~at:10 ~stamp;
  check Alcotest.bool "current tick accepted" true (Engine.slot_armed slot)

let () =
  Alcotest.run "ba_sim"
    [
      ( "engine",
        [
          Alcotest.test_case "starts at zero" `Quick test_engine_starts_at_zero;
          Alcotest.test_case "event order" `Quick test_engine_event_order;
          Alcotest.test_case "same-time FIFO" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "nested schedule" `Quick test_engine_nested_schedule;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "until" `Quick test_engine_until;
          Alcotest.test_case "max_events" `Quick test_engine_max_events;
          Alcotest.test_case "stop" `Quick test_engine_stop;
          Alcotest.test_case "step" `Quick test_engine_step;
          Alcotest.test_case "past schedule rejected" `Quick test_engine_past_schedule_rejected;
          Alcotest.test_case "pending count" `Quick test_engine_pending_count;
          Alcotest.test_case "pending counter incremental" `Quick test_engine_pending_incremental;
          Alcotest.test_case "dead-event compaction" `Quick test_engine_compaction;
          Alcotest.test_case "compaction keeps FIFO" `Quick test_engine_compaction_keeps_order;
          Alcotest.test_case "run skips cancelled heads" `Quick
            test_engine_run_skips_cancelled_heads;
          Alcotest.test_case "step skips cancelled heads" `Quick
            test_engine_step_skips_cancelled_heads;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
        ] );
      ( "keyed slot",
        [
          QCheck_alcotest.to_alcotest prop_keyed_slot_equals_plain_slots;
          Alcotest.test_case "past tick rejected" `Quick test_keyed_arm_rejects_past;
        ] );
      ( "timer",
        [
          Alcotest.test_case "fires once" `Quick test_timer_fires_once;
          Alcotest.test_case "restart extends" `Quick test_timer_restart_extends;
          Alcotest.test_case "stop" `Quick test_timer_stop;
          Alcotest.test_case "start_for" `Quick test_timer_start_for;
          Alcotest.test_case "set_duration" `Quick test_timer_set_duration;
          Alcotest.test_case "remaining" `Quick test_timer_remaining;
          Alcotest.test_case "rearm in callback" `Quick test_timer_rearm_in_callback;
        ] );
    ]
