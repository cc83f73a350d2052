(* Tests for the discrete-event engine and its slots. *)

let check = Alcotest.check

module Engine = Ba_sim.Engine

(* ------------------------------------------------------------------ *)
(* Engine *)

let test_engine_starts_at_zero () =
  let e = Engine.create () in
  check Alcotest.int "t=0" 0 (Engine.now e)

let test_engine_event_order () =
  let e = Engine.create () in
  let order = ref [] in
  Engine.schedule e ~delay:30 (fun () -> order := 3 :: !order);
  Engine.schedule e ~delay:10 (fun () -> order := 1 :: !order);
  Engine.schedule e ~delay:20 (fun () -> order := 2 :: !order);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "time order" [ 1; 2; 3 ] (List.rev !order);
  check Alcotest.int "clock at last event" 30 (Engine.now e)

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let order = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:10 (fun () -> order := i :: !order)
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "FIFO at same tick" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:5 (fun () ->
      fired := ("outer", Engine.now e) :: !fired;
      Engine.schedule e ~delay:7 (fun () -> fired := ("inner", Engine.now e) :: !fired));
  Engine.run e;
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "nested event fires later"
    [ ("outer", 5); ("inner", 12) ]
    (List.rev !fired)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let s = Engine.slot_create e (fun () -> fired := true) in
  Engine.slot_arm e s ~delay:10;
  check Alcotest.bool "armed before" true (Engine.slot_armed e s);
  Engine.slot_cancel e s;
  check Alcotest.bool "not armed after" false (Engine.slot_armed e s);
  Engine.run e;
  check Alcotest.bool "cancelled did not fire" false !fired

(* Events at the horizon tick fire; later ones wait for the next run. *)
let test_engine_until () =
  let e = Engine.create () in
  let fired = ref [] in
  Engine.schedule e ~delay:10 (fun () -> fired := 10 :: !fired);
  Engine.schedule e ~delay:50 (fun () -> fired := 50 :: !fired);
  Engine.schedule e ~delay:100 (fun () -> fired := 100 :: !fired);
  Engine.run ~until:50 e;
  check (Alcotest.list Alcotest.int) "events up to the horizon" [ 10; 50 ] (List.rev !fired);
  check Alcotest.int "clock advanced to horizon" 50 (Engine.now e);
  Engine.run e;
  check (Alcotest.list Alcotest.int) "late event after resume" [ 10; 50; 100 ] (List.rev !fired)

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1 (fun () -> incr count)
  done;
  Engine.run ~max_events:4 e;
  check Alcotest.int "budget respected" 4 !count

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    Engine.schedule e ~delay:i (fun () ->
        incr count;
        if !count = 3 then Engine.stop e)
  done;
  Engine.run e;
  check Alcotest.int "stopped mid-run" 3 !count;
  Engine.run e;
  check Alcotest.int "resumable" 10 !count

(* One event at a time is [run ~max_events:1]. *)
let test_engine_step () =
  let e = Engine.create () in
  let fired = ref 0 in
  Engine.schedule e ~delay:1 (fun () -> incr fired);
  Engine.schedule e ~delay:2 (fun () -> incr fired);
  Engine.run ~max_events:1 e;
  check Alcotest.int "one fired" 1 !fired;
  check Alcotest.int "clock at first" 1 (Engine.now e);
  Engine.run ~max_events:1 e;
  check Alcotest.int "second fired" 2 !fired;
  Engine.run ~max_events:1 e;
  check Alcotest.int "empty fires nothing" 2 !fired;
  check Alcotest.int "clock stays" 2 (Engine.now e)

let test_engine_past_schedule_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~delay:10 (fun () -> ());
  Engine.run e;
  Alcotest.check_raises "past time" (Invalid_argument "Engine.schedule_at: time in the past")
    (fun () -> Engine.schedule_at e ~at:5 (fun () -> ()));
  Alcotest.check_raises "negative delay" (Invalid_argument "Engine.schedule: negative delay")
    (fun () -> Engine.schedule e ~delay:(-1) (fun () -> ()))

let test_engine_pending_count () =
  let e = Engine.create () in
  let s = Engine.slot_create e ignore in
  Engine.slot_arm e s ~delay:10;
  Engine.schedule e ~delay:20 (fun () -> ());
  check Alcotest.int "two pending" 2 (Engine.pending_events e);
  Engine.slot_cancel e s;
  check Alcotest.int "one pending after cancel" 1 (Engine.pending_events e);
  Engine.run e;
  check Alcotest.int "none pending after run" 0 (Engine.pending_events e)

(* The pending count must stay exact across arbitrary interleavings of
   arm / re-arm / cancel / fire. *)
let test_engine_pending_incremental () =
  let e = Engine.create () in
  let slots = Array.init 100 (fun _ -> Engine.slot_create e ignore) in
  Array.iteri (fun i s -> Engine.slot_arm e s ~delay:(10 + i)) slots;
  check Alcotest.int "all armed" 100 (Engine.pending_events e);
  for i = 0 to 49 do
    Engine.slot_cancel e slots.(2 * i)
  done;
  check Alcotest.int "half cancelled" 50 (Engine.pending_events e);
  (* Double-cancel must not double-count, nor re-arming add one. *)
  Engine.slot_cancel e slots.(0);
  check Alcotest.int "idempotent cancel" 50 (Engine.pending_events e);
  Engine.slot_arm e slots.(99) ~delay:500;
  check Alcotest.int "re-arm keeps the count" 50 (Engine.pending_events e);
  Engine.run ~max_events:20 e;
  check Alcotest.int "fired events drain the count" 30 (Engine.pending_events e);
  (* Cancel-after-fire is a no-op on the count. *)
  Engine.slot_cancel e slots.(1);
  check Alcotest.int "cancel of fired slot ignored" 30 (Engine.pending_events e);
  Engine.schedule e ~delay:1000 (fun () -> ());
  check Alcotest.int "schedule adds" 31 (Engine.pending_events e);
  Engine.run e;
  check Alcotest.int "empty at the end" 0 (Engine.pending_events e);
  check Alcotest.int "nothing due" max_int (Engine.next_due e)

let test_engine_run_skips_cancelled_heads () =
  let e = Engine.create () in
  let fired = ref [] in
  let note i () = fired := i :: !fired in
  let s1 = Engine.slot_create e (note 1) and s2 = Engine.slot_create e (note 2) in
  Engine.slot_arm e s1 ~delay:1;
  Engine.slot_arm e s2 ~delay:2;
  Engine.schedule e ~delay:3 (note 3);
  Engine.schedule e ~delay:4 (note 4);
  Engine.slot_cancel e s1;
  Engine.slot_cancel e s2;
  check Alcotest.int "pending after cancel" 2 (Engine.pending_events e);
  check Alcotest.int "head is the first survivor" 3 (Engine.next_due e);
  Engine.run ~until:3 e;
  check Alcotest.(list int) "only survivor fired" [ 3 ] !fired;
  check Alcotest.int "pending after partial run" 1 (Engine.pending_events e);
  Engine.run e;
  check Alcotest.(list int) "remaining survivor fired" [ 4; 3 ] !fired;
  check Alcotest.int "drained pending" 0 (Engine.pending_events e)

let test_engine_step_skips_cancelled_heads () =
  let e = Engine.create () in
  let fired = ref 0 in
  let a = Engine.slot_create e ignore and b = Engine.slot_create e ignore in
  Engine.slot_arm e a ~delay:1;
  Engine.slot_arm e b ~delay:2;
  Engine.schedule e ~delay:3 (fun () -> incr fired);
  Engine.slot_cancel e a;
  Engine.slot_cancel e b;
  Engine.run ~max_events:1 e;
  check Alcotest.int "survivor fired" 1 !fired;
  check Alcotest.int "clock at survivor" 3 (Engine.now e);
  check Alcotest.int "pending drained" 0 (Engine.pending_events e);
  check Alcotest.int "no more events" max_int (Engine.next_due e)

let test_engine_determinism () =
  let trace seed =
    let e = Engine.create ~seed () in
    let log = ref [] in
    let rec churn () =
      if Engine.now e < 500 then begin
        let d = 1 + Ba_util.Rng.int (Engine.rng e) 20 in
        log := (Engine.now e, d) :: !log;
        Engine.schedule e ~delay:d churn
      end
    in
    churn ();
    Engine.run e;
    !log
  in
  check Alcotest.bool "same seed same trace" true (trace 5 = trace 5);
  check Alcotest.bool "different seed different trace" true (trace 5 <> trace 6)

(* ------------------------------------------------------------------ *)
(* Timers: a slot re-armed with the timer's duration, as every protocol
   endpoint arms its own *)

let test_timer_fires_once () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Engine.slot_create e (fun () -> incr fired) in
  Engine.slot_arm e t ~delay:25;
  Engine.run e;
  check Alcotest.int "fired once" 1 !fired;
  check Alcotest.int "at duration" 25 (Engine.now e)

let test_timer_restart_extends () =
  let e = Engine.create () in
  let fired_at = ref (-1) in
  let t = Engine.slot_create e (fun () -> fired_at := Engine.now e) in
  Engine.slot_arm e t ~delay:30;
  Engine.schedule e ~delay:20 (fun () -> Engine.slot_arm e t ~delay:30);
  Engine.run e;
  check Alcotest.int "restart pushed expiry" 50 !fired_at

let test_timer_stop () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Engine.slot_create e (fun () -> fired := true) in
  Engine.slot_arm e t ~delay:10;
  Engine.slot_cancel e t;
  Engine.run e;
  check Alcotest.bool "stopped" false !fired;
  check Alcotest.bool "not armed" false (Engine.slot_armed e t)

(* What is left of an arming shows as the tick the slot fires at: a
   check partway through changes nothing, and firing disarms it. *)
let test_timer_remaining () =
  let e = Engine.create () in
  let fired_at = ref None in
  let t = Engine.slot_create e (fun () -> fired_at := Some (Engine.now e)) in
  check Alcotest.bool "created disarmed" false (Engine.slot_armed e t);
  Engine.slot_arm e t ~delay:50;
  Engine.schedule e ~delay:20 (fun () ->
      check Alcotest.bool "still armed at 20" true (Engine.slot_armed e t));
  Engine.run e;
  check (Alcotest.option Alcotest.int) "fires 50 ticks after arming" (Some 50) !fired_at;
  check Alcotest.bool "fired: disarmed" false (Engine.slot_armed e t)

let test_timer_rearm_in_callback () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec t =
    lazy
      (Engine.slot_create e (fun () ->
           incr count;
           if !count < 3 then Engine.slot_arm e (Lazy.force t) ~delay:10))
  in
  Engine.slot_arm e (Lazy.force t) ~delay:10;
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
  let other = Engine.handler e (fun j -> log := (Engine.now e, -1 - j) :: !log) in
  let run_op = function
    | Arm (i, d) -> arm i d
    | Cancel i -> cancel i
    | Other d ->
        Engine.schedule_fn e ~delay:d other !others;
        incr others
  in
  List.iter
    (fun (tick, ops) -> Engine.schedule_at e ~at:tick (fun () -> List.iter run_op ops))
    s.steps;
  Engine.run e;
  List.rev !log

(* One plain slot per timer. *)
let plain_timers e k on_fire =
  let slots = Array.init k (fun i -> Engine.slot_create e (fun () -> on_fire i)) in
  ((fun i d -> Engine.slot_arm e slots.(i) ~delay:d), fun i -> Engine.slot_cancel e slots.(i))

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
    if !armed < 0 then Engine.slot_cancel e (slot ())
    else Engine.slot_arm_keyed e (slot ()) ~at:deadline.(!armed) ~stamp:stamp.(!armed)
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
  Engine.schedule e ~delay:10 (fun () -> ());
  Engine.run e;
  let stamp = Engine.take_stamp e in
  Alcotest.check_raises "past tick" (Invalid_argument "Engine.slot_arm_keyed: time in the past")
    (fun () -> Engine.slot_arm_keyed e slot ~at:5 ~stamp);
  check Alcotest.bool "still disarmed" false (Engine.slot_armed e slot);
  Engine.slot_arm_keyed e slot ~at:10 ~stamp;
  check Alcotest.bool "current tick accepted" true (Engine.slot_armed e slot)

(* ------------------------------------------------------------------ *)
(* Reference model: the engine against a list of (time, stamp) keys *)

type label = Slot of int | Closure of int | Fn of int

type mop =
  | M_at of int  (* [schedule_at] a closure, delay *)
  | M_fn of int  (* [schedule_fn] through a handler, delay *)
  | M_arm of int * int  (* slot, delay *)
  | M_reserve  (* [take_stamp] for a later keyed arming *)
  | M_keyed of int * int  (* slot, delay; armed with the oldest reserved stamp *)
  | M_cancel of int

(* [Step] is [run ~max_events:1]; [Drain] runs to the earliest pending
   tick; [Run_until d] runs to [d] ticks from now. *)
type action = Op of mop | Step | Drain | Run_until of int

(* Slot [i] runs [reactions.(i)] the first time it fires. *)
type program = { slots : int; reactions : mop list array; actions : action list }

let pp_label = function
  | Slot i -> Printf.sprintf "slot %d" i
  | Closure j -> Printf.sprintf "closure %d" j
  | Fn j -> Printf.sprintf "fn %d" j

let pp_mop = function
  | M_at d -> Printf.sprintf "at +%d" d
  | M_fn d -> Printf.sprintf "fn +%d" d
  | M_arm (i, d) -> Printf.sprintf "arm %d +%d" i d
  | M_reserve -> "reserve"
  | M_keyed (i, d) -> Printf.sprintf "keyed %d +%d" i d
  | M_cancel i -> Printf.sprintf "cancel %d" i

let pp_program p =
  let ops l = String.concat ", " (List.map pp_mop l) in
  Printf.sprintf "slots=%d reactions=[%s] %s" p.slots
    (String.concat "; " (Array.to_list (Array.map ops p.reactions)))
    (String.concat " | "
       (List.map
          (function
            | Op o -> pp_mop o
            | Step -> "step"
            | Drain -> "drain"
            | Run_until d -> Printf.sprintf "run +%d" d)
          p.actions))

let gen_program =
  let open QCheck.Gen in
  int_range 1 4 >>= fun k ->
  let delay = int_bound 5 and slot = int_bound (k - 1) in
  let mop =
    frequency
      [
        (2, map (fun d -> M_at d) delay);
        (2, map (fun d -> M_fn d) delay);
        (4, map2 (fun i d -> M_arm (i, d)) slot delay);
        (2, return M_reserve);
        (3, map2 (fun i d -> M_keyed (i, d)) slot delay);
        (2, map (fun i -> M_cancel i) slot);
      ]
  in
  let action =
    frequency
      [
        (6, map (fun o -> Op o) mop);
        (3, return Step);
        (1, return Drain);
        (1, map (fun d -> Run_until d) (int_bound 4));
      ]
  in
  map2
    (fun reactions actions -> { slots = k; reactions; actions })
    (array_repeat k (list_size (int_bound 3) mop))
    (list_size (int_range 1 40) action)

(* The model: every pending event as (time, stamp, label), the stamp
   counter, and the reserved stamps not yet used. *)
type model = {
  mutable events : (int * int * label) list;
  mutable stamp : int;
  reserved : int Queue.t;
}

let fail fmt = QCheck.Test.fail_reportf fmt

(* Run [p] on an engine and on the model side by side. Every firing must
   be the model's earliest key, at its tick: the program ends by draining
   the engine, so every slot's last arming is checked by the tick it
   fires at. After every operation and every firing, [pending_events],
   [next_due] and [slot_armed] must agree with the model. *)
let run_program p =
  let e = Engine.create () in
  let m = { events = []; stamp = 0; reserved = Queue.create () } in
  let on_fire = ref (fun (_ : label) -> ()) in
  let slots = Array.init p.slots (fun i -> Engine.slot_create e (fun () -> !on_fire (Slot i))) in
  let fn = Engine.handler e (fun j -> !on_fire (Fn j)) in
  let reacted = Array.make p.slots false in
  let ids = ref 0 and fired = ref 0 in
  let take () =
    let s = m.stamp in
    m.stamp <- s + 1;
    s
  in
  let add time stamp label = m.events <- (time, stamp, label) :: m.events in
  let drop label = m.events <- List.filter (fun (_, _, l) -> l <> label) m.events in
  let head () =
    List.fold_left
      (fun best ((t, s, _) as ev) ->
        match best with
        | Some (bt, bs, _) when bt < t || (bt = t && bs < s) -> best
        | Some _ | None -> Some ev)
      None m.events
  in
  let check_state () =
    let n = List.length m.events in
    if Engine.pending_events e <> n then
      fail "pending_events %d, model %d" (Engine.pending_events e) n;
    if Engine.next_due e <> Option.fold ~none:max_int ~some:(fun (t, _, _) -> t) (head ()) then
      fail "next_due differs from the model";
    Array.iteri
      (fun i s ->
        match List.find_opt (fun (_, _, l) -> l = Slot i) m.events with
        | None -> if Engine.slot_armed e s then fail "slot %d armed, model disarmed" i
        | Some _ -> if not (Engine.slot_armed e s) then fail "slot %d disarmed, model armed" i)
      slots
  in
  let exec op =
    let now = Engine.now e in
    (match op with
    | M_at d ->
        let j = !ids in
        incr ids;
        Engine.schedule_at e ~at:(now + d) (fun () -> !on_fire (Closure j));
        add (now + d) (take ()) (Closure j)
    | M_fn d ->
        let j = !ids in
        incr ids;
        Engine.schedule_fn e ~delay:d fn j;
        add (now + d) (take ()) (Fn j)
    | M_arm (i, d) ->
        Engine.slot_arm e slots.(i) ~delay:d;
        drop (Slot i);
        add (now + d) (take ()) (Slot i)
    | M_reserve ->
        Queue.push (Engine.take_stamp e) m.reserved;
        ignore (take ())
    | M_keyed (i, d) -> (
        match Queue.take_opt m.reserved with
        | None -> ()
        | Some stamp ->
            Engine.slot_arm_keyed e slots.(i) ~at:(now + d) ~stamp;
            drop (Slot i);
            add (now + d) stamp (Slot i))
    | M_cancel i ->
        Engine.slot_cancel e slots.(i);
        drop (Slot i));
    check_state ()
  in
  (on_fire :=
     fun label ->
       match head () with
       | None -> fail "%s fired, model empty" (pp_label label)
       | Some ((t, _, l) as ev) ->
           if l <> label || t <> Engine.now e then
             fail "%s fired at %d, model expects %s at %d" (pp_label label) (Engine.now e)
               (pp_label l) t;
           m.events <- List.filter (fun x -> x != ev) m.events;
           incr fired;
           check_state ();
           match label with
           | Slot i when not reacted.(i) ->
               reacted.(i) <- true;
               List.iter exec p.reactions.(i)
           | Slot _ | Closure _ | Fn _ -> ());
  List.iter
    (function
      | Op op -> exec op
      | Step ->
          let before = !fired in
          let expect = if m.events = [] then 0 else 1 in
          Engine.run ~max_events:1 e;
          if !fired - before <> expect then
            fail "run ~max_events:1 fired %d, model %d" (!fired - before) expect
      | Drain -> (
          (* Every event of the earliest tick, including those its
             callbacks schedule for that same tick. *)
          match head () with
          | None -> ()
          | Some (tick, _, _) ->
              Engine.run ~until:tick e;
              if List.exists (fun (t, _, _) -> t = tick) m.events then
                fail "run ~until:%d left events of its tick" tick)
      | Run_until d ->
          let horizon = Engine.now e + d in
          Engine.run ~until:horizon e;
          if List.exists (fun (t, _, _) -> t <= horizon) m.events then
            fail "run ~until:%d left events at or before it" horizon;
          if Engine.now e <> horizon then
            fail "clock %d after run ~until:%d" (Engine.now e) horizon)
    p.actions;
  Engine.run e;
  check_state ();
  true

let prop_engine_matches_model =
  QCheck.Test.make ~count:1000 ~name:"engine matches a sorted-key reference model"
    (QCheck.make ~print:pp_program gen_program)
    run_program

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
          Alcotest.test_case "run skips cancelled heads" `Quick
            test_engine_run_skips_cancelled_heads;
          Alcotest.test_case "step skips cancelled heads" `Quick
            test_engine_step_skips_cancelled_heads;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          QCheck_alcotest.to_alcotest prop_engine_matches_model;
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
          Alcotest.test_case "remaining" `Quick test_timer_remaining;
          Alcotest.test_case "rearm in callback" `Quick test_timer_rearm_in_callback;
        ] );
    ]
