(* Tests for delay distributions, the lossy/reordering link and the
   formal multiset channel. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

module Dist = Ba_channel.Dist
module Link = Ba_channel.Link
module M = Ba_channel.Multiset
module Engine = Ba_sim.Engine

(* ------------------------------------------------------------------ *)
(* Dist *)

let test_dist_constant () =
  let rng = Ba_util.Rng.create 1 in
  for _ = 1 to 20 do
    check Alcotest.int "constant" 42 (Dist.sample (Dist.Constant 42) rng)
  done;
  check Alcotest.int "max" 42 (Dist.max_delay (Dist.Constant 42));
  check (Alcotest.float 1e-9) "mean" 42. (Dist.mean (Dist.Constant 42))

let test_dist_uniform_bounds () =
  let rng = Ba_util.Rng.create 2 in
  let d = Dist.Uniform (10, 20) in
  for _ = 1 to 1_000 do
    let v = Dist.sample d rng in
    if v < 10 || v > 20 then Alcotest.failf "uniform out of bounds: %d" v
  done;
  check Alcotest.int "max" 20 (Dist.max_delay d);
  check (Alcotest.float 1e-9) "mean" 15. (Dist.mean d)

let test_dist_texp_capped () =
  let rng = Ba_util.Rng.create 3 in
  let d = Dist.Truncated_exp { mean = 30.; cap = 100 } in
  for _ = 1 to 5_000 do
    let v = Dist.sample d rng in
    if v < 0 || v > 100 then Alcotest.failf "texp out of bounds: %d" v
  done;
  check Alcotest.int "max" 100 (Dist.max_delay d)

let test_dist_validation () =
  let rng = Ba_util.Rng.create 1 in
  Alcotest.check_raises "negative constant" (Invalid_argument "Dist: negative delay") (fun () ->
      ignore (Dist.sample (Dist.Constant (-1)) rng));
  Alcotest.check_raises "bad uniform" (Invalid_argument "Dist: bad uniform range") (fun () ->
      ignore (Dist.sample (Dist.Uniform (5, 2)) rng))

(* ------------------------------------------------------------------ *)
(* Link *)

let count l = Ba_util.Counters.get (Link.counters l)

let test_link_delivers_all_lossless () =
  let e = Engine.create () in
  let got = ref [] in
  let l = Link.create e ~delay:(Dist.Constant 10) ~deliver:(fun m -> got := m :: !got) () in
  for i = 0 to 99 do
    Link.send l i
  done;
  Engine.run e;
  check Alcotest.int "all delivered" 100 (List.length !got);
  let s = count l in
  check Alcotest.int "sent" 100 (s Offered);
  check Alcotest.int "delivered" 100 (s Passed);
  check Alcotest.int "dropped" 0 (s Lost)

let test_link_constant_delay_preserves_order () =
  let e = Engine.create () in
  let got = ref [] in
  let l = Link.create e ~delay:(Dist.Constant 10) ~deliver:(fun m -> got := m :: !got) () in
  for i = 0 to 49 do
    Link.send l i
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "FIFO under constant delay"
    (List.init 50 (fun i -> i))
    (List.rev !got);
  check Alcotest.int "no reorder counted" 0 (count l Reordered)

let test_link_loss_all () =
  let e = Engine.create () in
  let got = ref 0 in
  let l = Link.create e ~loss:1.0 ~deliver:(fun _ -> incr got) () in
  for i = 0 to 9 do
    Link.send l i
  done;
  Engine.run e;
  check Alcotest.int "nothing delivered" 0 !got;
  check Alcotest.int "all dropped" 10 (count l Lost)

let test_link_loss_rate () =
  let e = Engine.create ~seed:5 () in
  let l = Link.create e ~loss:0.25 ~deliver:(fun _ -> ()) () in
  let n = 20_000 in
  for i = 0 to n - 1 do
    Link.send l i
  done;
  Engine.run e;
  let rate = float_of_int (count l Lost) /. float_of_int n in
  if abs_float (rate -. 0.25) > 0.02 then Alcotest.failf "loss rate %f too far from 0.25" rate

let test_link_jitter_reorders () =
  let e = Engine.create ~seed:9 () in
  let l = Link.create e ~delay:(Dist.Uniform (1, 100)) ~deliver:(fun _ -> ()) () in
  for i = 0 to 499 do
    Link.send l i
  done;
  Engine.run e;
  check Alcotest.bool "jitter produced reorder" true (count l Reordered > 0)

let test_link_fault_hook () =
  let e = Engine.create () in
  let got = ref [] in
  let l = Link.create e ~delay:(Dist.Constant 1) ~deliver:(fun m -> got := m :: !got) () in
  Link.set_fault l (fun m -> if m mod 2 = 0 then Link.Drop else Link.Deliver);
  for i = 0 to 9 do
    Link.send l i
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "odd survive" [ 1; 3; 5; 7; 9 ] (List.sort compare !got);
  Link.clear_fault l;
  Link.send l 2;
  Engine.run e;
  check Alcotest.bool "hook cleared" true (List.mem 2 !got)

let test_link_in_flight () =
  let e = Engine.create () in
  let l = Link.create e ~delay:(Dist.Constant 50) ~deliver:(fun _ -> ()) () in
  Link.send l 1;
  Link.send l 2;
  check Alcotest.int "two in flight" 2 (Link.in_flight l);
  Engine.run e;
  check Alcotest.int "none in flight" 0 (Link.in_flight l)

let test_link_max_delay () =
  let e = Engine.create () in
  let l = Link.create e ~delay:(Dist.Uniform (3, 77)) ~deliver:(fun _ -> ()) () in
  check Alcotest.int "bound exposed" 77 (Link.max_delay l)

let test_link_rejects_bad_loss () =
  let e = Engine.create () in
  Alcotest.check_raises "loss > 1" (Invalid_argument "Link.create: loss must be in [0,1]")
    (fun () -> ignore (Link.create e ~loss:1.5 ~deliver:(fun (_ : int) -> ()) ()))

(* Bottleneck queue *)

let test_bottleneck_paces_delivery () =
  let e = Engine.create () in
  let times = ref [] in
  let l =
    Link.create e ~delay:(Dist.Constant 0) ~bottleneck:(10, 100)
      ~deliver:(fun m -> times := (m, Engine.now e) :: !times)
      ()
  in
  for i = 0 to 4 do
    Link.send l i
  done;
  Engine.run e;
  (* One message every 10 ticks, FIFO. *)
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "service pacing"
    [ (0, 10); (1, 20); (2, 30); (3, 40); (4, 50) ]
    (List.rev !times)

let test_bottleneck_tail_drop () =
  let e = Engine.create () in
  let got = ref 0 in
  let l =
    Link.create e ~delay:(Dist.Constant 1) ~bottleneck:(10, 3) ~deliver:(fun _ -> incr got) ()
  in
  (* Burst of 10 into a queue of 3 (plus 1 in service): 4 survive. *)
  for i = 0 to 9 do
    Link.send l i
  done;
  check Alcotest.int "queue full" 3 (Link.queue_length l);
  Engine.run e;
  check Alcotest.int "survivors" 4 !got;
  check Alcotest.int "tail drops counted" 6 (count l Queue_dropped);
  check Alcotest.int "random drops separate" 0 (count l Lost)

let test_bottleneck_drains_then_idles () =
  let e = Engine.create () in
  let got = ref 0 in
  let l =
    Link.create e ~delay:(Dist.Constant 5) ~bottleneck:(10, 8) ~deliver:(fun _ -> incr got) ()
  in
  Link.send l 1;
  Engine.run e;
  check Alcotest.int "first batch" 1 !got;
  (* After idling, a later send still works. *)
  Link.send l 2;
  Engine.run e;
  check Alcotest.int "second batch" 2 !got

let test_bottleneck_validation () =
  let e = Engine.create () in
  Alcotest.check_raises "bad bottleneck"
    (Invalid_argument "Link.create: bottleneck needs positive service time and capacity")
    (fun () -> ignore (Link.create e ~bottleneck:(0, 5) ~deliver:(fun (_ : int) -> ()) ()))

(* ------------------------------------------------------------------ *)
(* Fault plans *)

module FP = Ba_channel.Fault_plan

let test_plan_validation () =
  Alcotest.check_raises "bad duplicate prob"
    (Invalid_argument "Fault_plan: duplicate probability 1.5 outside [0,1]") (fun () ->
      ignore (FP.make ~duplicate:1.5 ()));
  Alcotest.check_raises "copies < 2" (Invalid_argument "Fault_plan: copies must be >= 2")
    (fun () -> ignore (FP.make ~copies:1 ()));
  Alcotest.check_raises "empty outage"
    (Invalid_argument "Fault_plan: outage needs 0 <= from_tick < until_tick") (fun () ->
      ignore (FP.make ~outages:[ { FP.from_tick = 10; until_tick = 10 } ] ()));
  Alcotest.check_raises "absorbing bad state"
    (Invalid_argument "Fault_plan: absorbing bad state with total loss never delivers again")
    (fun () ->
      ignore
        (FP.make
           ~bursty:{ FP.p_enter_bad = 0.1; p_exit_bad = 0.; loss_good = 0.; loss_bad = 1. }
           ()))

let test_plan_none_always_delivers () =
  let i = FP.instantiate FP.none ~rng:(Ba_util.Rng.create 7) in
  for _ = 1 to 1_000 do
    match FP.decide i with
    | FP.Deliver -> ()
    | _ -> Alcotest.fail "empty plan produced a non-Deliver verdict"
  done

let test_plan_pp_replay_key () =
  let plan =
    FP.make
      ~bursty:{ FP.p_enter_bad = 0.05; p_exit_bad = 0.2; loss_good = 0.; loss_bad = 0.8 }
      ~duplicate:0.1 ~outages:[ { FP.from_tick = 2000; until_tick = 4000 } ] ()
  in
  check Alcotest.string "replay key" "ge(0.050->0.200,l=0.00/0.80)+dup(0.10x2)+out[2000,4000)"
    (Format.asprintf "%a" FP.pp plan);
  check Alcotest.string "empty key" "none" (Format.asprintf "%a" FP.pp FP.none)

let roundtrip name plan =
  let key = Format.asprintf "%a" FP.pp plan in
  match FP.of_string key with
  | Error msg -> Alcotest.failf "%s: %S did not parse: %s" name key msg
  | Ok p ->
      check Alcotest.string (name ^ " renders back identically") key
        (Format.asprintf "%a" FP.pp p)

let test_plan_of_string_roundtrip () =
  roundtrip "none" FP.none;
  roundtrip "bursty"
    (FP.make
       ~bursty:{ FP.p_enter_bad = 0.05; p_exit_bad = 0.2; loss_good = 0.01; loss_bad = 0.8 }
       ());
  roundtrip "dup" (FP.make ~duplicate:0.25 ~copies:3 ());
  roundtrip "corrupt" (FP.make ~corrupt:0.15 ());
  roundtrip "spike" (FP.make ~delay_spike:(0.3, 350) ());
  roundtrip "outages"
    (FP.make
       ~outages:
         [ { FP.from_tick = 100; until_tick = 400 }; { FP.from_tick = 900; until_tick = 1200 } ]
       ());
  roundtrip "everything"
    (FP.make
       ~bursty:{ FP.p_enter_bad = 0.05; p_exit_bad = 0.2; loss_good = 0.; loss_bad = 0.8 }
       ~duplicate:0.1 ~corrupt:0.05 ~delay_spike:(0.2, 250)
       ~outages:[ { FP.from_tick = 2000; until_tick = 4000 } ]
       ())

let test_plan_of_string_campaign_keys () =
  (* Every replay key the chaos campaign can print must parse back — the
     whole point of ba_chaos --replay. *)
  let module Chaos = Ba_verify.Chaos in
  List.iter
    (fun fault ->
      List.iter
        (fun seed ->
          let data_plan, ack_plan = Chaos.plans_for fault ~seed in
          roundtrip (Chaos.class_name fault ^ " data plan") data_plan;
          roundtrip (Chaos.class_name fault ^ " ack plan") ack_plan)
        [ 1; 5; 17; 42 ])
    Chaos.all_classes

let test_plan_of_string_rejects_garbage () =
  let is_error = function Error _ -> true | Ok _ -> false in
  check Alcotest.bool "unknown token" true (is_error (FP.of_string "gremlins(0.5)"));
  check Alcotest.bool "duplicate singleton fault" true
    (is_error (FP.of_string "corr(0.10)+corr(0.20)"));
  check Alcotest.bool "invalid probability" true (is_error (FP.of_string "corr(1.50)"));
  check Alcotest.bool "empty outage" true (is_error (FP.of_string "out[10,10)"))

(* The realized Gilbert-Elliott burst lengths must match the configured
   means: mean bad burst = 1/p_exit_bad, mean good run = 1/p_enter_bad
   (equivalently, bad-state occupancy = p_enter/(p_enter + p_exit)). *)
let test_ge_burst_lengths () =
  let g = { FP.p_enter_bad = 0.1; p_exit_bad = 0.25; loss_good = 0.; loss_bad = 1. } in
  let i = FP.instantiate (FP.make ~bursty:g ()) ~rng:(Ba_util.Rng.create 11) in
  let steps = 200_000 in
  for _ = 1 to steps do
    ignore (FP.decide i)
  done;
  let s = FP.burst_stats i in
  check Alcotest.int "steps counted" steps s.FP.steps;
  let mean_burst = float_of_int s.FP.bad_steps /. float_of_int s.FP.bad_entries in
  let expected_burst = 1. /. g.FP.p_exit_bad in
  if abs_float (mean_burst -. expected_burst) > 0.3 then
    Alcotest.failf "mean burst %.2f too far from %.2f" mean_burst expected_burst;
  let occupancy = float_of_int s.FP.bad_steps /. float_of_int steps in
  let expected_occ = g.FP.p_enter_bad /. (g.FP.p_enter_bad +. g.FP.p_exit_bad) in
  if abs_float (occupancy -. expected_occ) > 0.02 then
    Alcotest.failf "bad occupancy %.3f too far from %.3f" occupancy expected_occ

let test_ge_loss_follows_state () =
  (* loss_bad = 1, loss_good = 0: every Drop must come from a bad step. *)
  let g = { FP.p_enter_bad = 0.2; p_exit_bad = 0.3; loss_good = 0.; loss_bad = 1. } in
  let i = FP.instantiate (FP.make ~bursty:g ()) ~rng:(Ba_util.Rng.create 13) in
  let drops = ref 0 in
  for _ = 1 to 50_000 do
    match FP.decide i with FP.Drop -> incr drops | _ -> ()
  done;
  check Alcotest.int "drops = bad steps" (FP.burst_stats i).FP.bad_steps !drops

let test_link_duplicate_stats () =
  let e = Engine.create ~seed:21 () in
  let got = ref 0 in
  let l = Link.create e ~delay:(Dist.Constant 5) ~deliver:(fun _ -> incr got) () in
  Link.set_plan l (FP.make ~duplicate:1.0 ~copies:3 ());
  for i = 0 to 99 do
    Link.send l i
  done;
  Engine.run e;
  check Alcotest.int "every message tripled" 300 !got;
  let s = count l in
  check Alcotest.int "extra copies counted" 200 (s Duplicated);
  check Alcotest.int "deliveries counted" 300 (s Passed);
  check Alcotest.int "no random drops" 0 (s Lost)

(* A plan's outage check and its verdicts cost a frame nothing: the
   second 1,000 ticks of sends, half of them in outages and the rest
   under burst loss, duplication and delay spikes, allocate no word once
   the first 1,000 have grown the link's arena. *)
let test_link_plan_allocates_nothing () =
  let e = Engine.create ~seed:23 () in
  let l = Link.create_tagged e ~delay:(Dist.Constant 5) ~deliver:(fun _ _ -> ()) () in
  let outages = List.init 20 (fun k -> { FP.from_tick = (200 * k) + 100; until_tick = 200 * (k + 1) }) in
  let bursty = { FP.p_enter_bad = 0.05; p_exit_bad = 0.3; loss_good = 0.01; loss_bad = 0.5 } in
  Link.set_plan l (FP.make ~bursty ~duplicate:0.05 ~delay_spike:(0.05, 30) ~outages ());
  let msg = "frame" in
  let pass from =
    for t = from to from + 999 do
      Link.send_tagged l 7 msg;
      Engine.run_until e t
    done
  in
  pass 0;
  let w0 = Gc.minor_words () in
  pass 1000;
  let words = Gc.minor_words () -. w0 in
  check Alcotest.bool "half the frames fell in outages" true (count l Outage_drops >= 900);
  check Alcotest.bool "the others met every verdict" true
    (count l Lost > 0 && count l Duplicated > 0 && count l Reordered > 0);
  check Alcotest.int "1,000 sends under a plan: 0 words" 0 (int_of_float words)

(* Growing the arena copies its message column without a young filler.
   [Array.make] of more than 256 words from a young value forces a minor
   collection first; appending the column to itself does not. The
   257th frame in flight, freshly allocated, grows the arena (and the
   engine's event heap) from 256 entries to 512. *)
let test_link_arena_growth_no_minor () =
  let e = Engine.create () in
  let l = Link.create_tagged e ~delay:(Dist.Constant 5) ~deliver:(fun _ _ -> ()) () in
  for i = 0 to 255 do
    Link.send_tagged l 0 (ref i)
  done;
  check Alcotest.int "256 in flight" 256 (Link.in_flight l);
  Gc.minor ();
  let frame = ref 256 in
  let m0 = (Gc.quick_stat ()).Gc.minor_collections in
  Link.send_tagged l 0 frame;
  let m1 = (Gc.quick_stat ()).Gc.minor_collections in
  check Alcotest.int "257 in flight" 257 (Link.in_flight l);
  check Alcotest.int "growing the arena from 256 to 512 entries: 0 minor collections" 0 (m1 - m0)

(* A retired link refuses to send: its columns may belong to another
   link by now. Its counters still answer. *)
let test_link_retired_refuses () =
  let e = Engine.create () in
  let l = Link.create e ~delay:(Dist.Constant 5) ~deliver:ignore () in
  Link.send l 1;
  Engine.run e;
  Link.retire l;
  Engine.retire e;
  check Alcotest.int "counters answer" 1 (count l Passed);
  Alcotest.check_raises "send after retire"
    (Invalid_argument "Link.send_tagged: link used after retire") (fun () -> Link.send l 2)

let test_link_corrupt_stats_and_mangling () =
  let e = Engine.create ~seed:22 () in
  let got = ref [] in
  let l =
    Link.create e ~delay:(Dist.Constant 5) ~corrupt:(fun x -> -x)
      ~deliver:(fun m -> got := m :: !got)
      ()
  in
  Link.set_plan l (FP.make ~corrupt:1.0 ());
  for i = 1 to 10 do
    Link.send l i
  done;
  Engine.run e;
  check (Alcotest.list Alcotest.int) "all mangled"
    (List.init 10 (fun i -> i - 10))
    (List.sort compare !got);
  check Alcotest.int "corruptions counted" 10 (count l Mangled)

let test_link_outage_window () =
  let e = Engine.create ~seed:23 () in
  let got = ref [] in
  let l = Link.create e ~delay:(Dist.Constant 1) ~deliver:(fun m -> got := m :: !got) () in
  Link.set_plan l (FP.make ~outages:[ { FP.from_tick = 100; until_tick = 200 } ] ());
  let send_at at tag = Ba_sim.Engine.schedule_at e ~at (fun () -> Link.send l tag) in
  send_at 50 `Before;
  send_at 100 `During;
  send_at 199 `During2;
  send_at 200 `After;
  Engine.run e;
  check Alcotest.int "only outside the window" 2 (List.length !got);
  check Alcotest.bool "before survives" true (List.mem `Before !got);
  check Alcotest.bool "after survives" true (List.mem `After !got);
  let s = count l in
  check Alcotest.int "outage drops counted apart" 2 (s Outage_drops);
  check Alcotest.int "not mixed into random drops" 0 (s Lost)

let test_link_delay_spike_verdict () =
  let e = Engine.create ~seed:24 () in
  let at = ref (-1) in
  let l = Link.create e ~delay:(Dist.Constant 10) ~deliver:(fun () -> at := Engine.now e) () in
  Link.set_plan l (FP.make ~delay_spike:(1.0, 100) ());
  Link.send l ();
  Engine.run e;
  check Alcotest.int "base + spike" 110 !at

let test_link_hook_overrides_plan () =
  let e = Engine.create ~seed:25 () in
  let got = ref 0 in
  let l = Link.create e ~delay:(Dist.Constant 1) ~deliver:(fun _ -> incr got) () in
  Link.set_plan l (FP.make ~duplicate:1.0 ~copies:2 ());
  Link.set_fault l (fun _ -> Link.Drop);
  Link.send l 1;
  Engine.run e;
  check Alcotest.int "scripted drop wins over plan" 0 !got;
  Link.clear_fault l;
  Link.send l 2;
  Engine.run e;
  check Alcotest.int "plan resumes" 2 !got

(* ------------------------------------------------------------------ *)
(* Multiset *)

let test_multiset_basic () =
  let m = M.empty in
  check Alcotest.bool "empty" true (M.is_empty m);
  let m = M.add 3 (M.add 1 (M.add 3 m)) in
  check Alcotest.int "cardinal" 3 (M.cardinal m);
  check Alcotest.int "count 3" 2 (M.count 3 m);
  check Alcotest.bool "mem" true (M.mem 1 m);
  check (Alcotest.list Alcotest.int) "distinct sorted" [ 1; 3 ] (M.distinct m);
  check (Alcotest.list Alcotest.int) "elements with multiplicity" [ 1; 3; 3 ] (M.elements m)

let test_multiset_remove () =
  let m = M.of_list [ 5; 5; 7 ] in
  let m = M.remove 5 m in
  check Alcotest.int "one occurrence removed" 1 (M.count 5 m);
  let m = M.remove 5 m in
  check Alcotest.bool "gone" false (M.mem 5 m);
  let m = M.remove 99 m in
  check Alcotest.int "remove absent is noop" 1 (M.cardinal m)

let test_multiset_canonical_equality () =
  let a = M.add 1 (M.add 2 M.empty) and b = M.add 2 (M.add 1 M.empty) in
  check Alcotest.bool "order-insensitive equality" true (a = b);
  check Alcotest.bool "same hash" true (Hashtbl.hash a = Hashtbl.hash b)

let test_multiset_predicates () =
  let m = M.of_list [ 2; 4; 4; 6 ] in
  check Alcotest.bool "for_all even" true (M.for_all (fun x -> x mod 2 = 0) m);
  check Alcotest.bool "exists > 5" true (M.exists (fun x -> x > 5) m);
  check Alcotest.int "filter_count" 3 (M.filter_count (fun x -> x >= 4) m)

let test_multiset_fold () =
  let m = M.of_list [ 1; 1; 2 ] in
  let total = M.fold (fun x k acc -> acc + (x * k)) m 0 in
  check Alcotest.int "weighted fold" 4 total

let prop_multiset_matches_sorted_list =
  QCheck.Test.make ~name:"multiset elements = sorted inserts minus removes" ~count:300
    QCheck.(pair (list (int_bound 20)) (list (int_bound 20)))
    (fun (adds, removes) ->
      let m = List.fold_left (fun m x -> M.add x m) M.empty adds in
      let m = List.fold_left (fun m x -> M.remove x m) m removes in
      let reference =
        List.fold_left
          (fun acc x ->
            let rec remove_one = function
              | [] -> []
              | y :: rest -> if y = x then rest else y :: remove_one rest
            in
            remove_one acc)
          (List.sort compare adds) removes
      in
      M.elements m = List.sort compare reference)

let () =
  Alcotest.run "ba_channel"
    [
      ( "dist",
        [
          Alcotest.test_case "constant" `Quick test_dist_constant;
          Alcotest.test_case "uniform bounds" `Quick test_dist_uniform_bounds;
          Alcotest.test_case "texp capped" `Quick test_dist_texp_capped;
          Alcotest.test_case "validation" `Quick test_dist_validation;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivers all lossless" `Quick test_link_delivers_all_lossless;
          Alcotest.test_case "constant delay preserves order" `Quick
            test_link_constant_delay_preserves_order;
          Alcotest.test_case "loss all" `Quick test_link_loss_all;
          Alcotest.test_case "loss rate" `Slow test_link_loss_rate;
          Alcotest.test_case "jitter reorders" `Quick test_link_jitter_reorders;
          Alcotest.test_case "fault hook" `Quick test_link_fault_hook;
          Alcotest.test_case "in flight" `Quick test_link_in_flight;
          Alcotest.test_case "max delay" `Quick test_link_max_delay;
          Alcotest.test_case "rejects bad loss" `Quick test_link_rejects_bad_loss;
          Alcotest.test_case "bottleneck paces delivery" `Quick test_bottleneck_paces_delivery;
          Alcotest.test_case "bottleneck tail drop" `Quick test_bottleneck_tail_drop;
          Alcotest.test_case "bottleneck drains then idles" `Quick
            test_bottleneck_drains_then_idles;
          Alcotest.test_case "bottleneck validation" `Quick test_bottleneck_validation;
          Alcotest.test_case "arena growth forces no minor collection" `Quick
            test_link_arena_growth_no_minor;
          Alcotest.test_case "retired link refuses to send" `Quick test_link_retired_refuses;
        ] );
      ( "fault_plan",
        [
          Alcotest.test_case "validation" `Quick test_plan_validation;
          Alcotest.test_case "none always delivers" `Quick test_plan_none_always_delivers;
          Alcotest.test_case "pp replay key" `Quick test_plan_pp_replay_key;
          Alcotest.test_case "of_string roundtrip" `Quick test_plan_of_string_roundtrip;
          Alcotest.test_case "of_string parses campaign keys" `Quick
            test_plan_of_string_campaign_keys;
          Alcotest.test_case "of_string rejects garbage" `Quick
            test_plan_of_string_rejects_garbage;
          Alcotest.test_case "GE burst lengths" `Slow test_ge_burst_lengths;
          Alcotest.test_case "GE loss follows state" `Quick test_ge_loss_follows_state;
          Alcotest.test_case "duplicate stats" `Quick test_link_duplicate_stats;
          Alcotest.test_case "a plan allocates nothing per frame" `Quick
            test_link_plan_allocates_nothing;
          Alcotest.test_case "corrupt stats and mangling" `Quick
            test_link_corrupt_stats_and_mangling;
          Alcotest.test_case "outage window" `Quick test_link_outage_window;
          Alcotest.test_case "delay spike verdict" `Quick test_link_delay_spike_verdict;
          Alcotest.test_case "hook overrides plan" `Quick test_link_hook_overrides_plan;
        ] );
      ( "multiset",
        [
          Alcotest.test_case "basic" `Quick test_multiset_basic;
          Alcotest.test_case "remove" `Quick test_multiset_remove;
          Alcotest.test_case "canonical equality" `Quick test_multiset_canonical_equality;
          Alcotest.test_case "predicates" `Quick test_multiset_predicates;
          Alcotest.test_case "fold" `Quick test_multiset_fold;
          qcheck prop_multiset_matches_sorted_list;
        ] );
    ]
