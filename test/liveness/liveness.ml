(* The sweeps that found ROADMAP items 14 and 18, each over its whole
   case space, as a recorded-defect gate:

     dune build @liveness

   Each sweep prints every case that does not complete; the run fails
   unless each list equals the one recorded below. A fix that makes a
   recorded case complete, or a change that stalls a new one, has to
   change this file on purpose. *)

module Config = Ba_proto.Proto_config
module Harness = Ba_proto.Harness

(* (a) test_overload's pressure property: seeds 0-10,000 under both
   drop policies, 20,002 cases. *)
let pressure () =
  List.concat_map
    (fun policy ->
      List.filter_map
        (fun seed ->
          let r = Recorded.pressure_run ~seed policy in
          if Harness.correct r then None
          else begin
            Format.printf "pressure: seed %d %s: %a@." seed (Config.drop_policy_name policy)
              Harness.pp_result r;
            Some (seed, policy)
          end)
        (List.init 10_001 Fun.id))
    [ Config.Drop_new; Config.Drop_furthest ]

(* (b) A2's fixed-window config at every window from 4 to 64. A stalled
   run's delivered count is the same at 0.5M, 2M and 10M ticks, so a
   2M-tick deadline separates stalls from slow runs. *)
let a2 () =
  List.filter_map
    (fun window ->
      let r = Recorded.a2_run ~window ~deadline:2_000_000 in
      if Harness.correct r then None
      else begin
        Format.printf "a2: w=%d: %a@." window Harness.pp_result r;
        Some window
      end)
    (List.init 61 (fun i -> i + 4))

let () =
  let t0 = Unix.gettimeofday () in
  let stalled = pressure () in
  let t1 = Unix.gettimeofday () in
  let windows = a2 () in
  let t2 = Unix.gettimeofday () in
  Printf.printf "liveness: pressure sweep %.1f s, a2 sweep %.1f s\n" (t1 -. t0) (t2 -. t1);
  let pressure_ok = stalled = [ (4095, Config.Drop_furthest) ]
  and a2_ok = windows = [ 32; 51; 52; 63 ] in
  if not pressure_ok then
    print_endline "liveness: pressure sweep differs from the recorded (seed 4095, drop-furthest)";
  if not a2_ok then print_endline "liveness: a2 sweep differs from the recorded w = 32, 51, 52, 63";
  if pressure_ok && a2_ok then print_endline "liveness: ok" else exit 1
