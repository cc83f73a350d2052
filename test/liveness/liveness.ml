(* The sweeps that found ROADMAP items 14 and 18, each over its whole
   case space, and the census of item 22, as a recorded-defect gate:

     dune build @liveness

   Each sweep prints every case that does not complete; the run fails
   unless each list equals the one recorded below. A fix that makes a
   recorded case complete, or a change that stalls a new one, has to
   change this file on purpose. *)

module Config = Ba_proto.Proto_config
module Harness = Ba_proto.Harness
module Registry = Ba_registry.Registry

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

(* (c) The liveness census (ROADMAP item 22): lossless transfers of 600
   messages, seed 3, [Constant 50] delay both ways, through a tail-drop
   bottleneck, for each protocol on its registry config over w = 2-32,
   four rtos and five (service, queue) bottlenecks: 620 runs each. A
   stalled run's delivered count is the same at 0.6M and 6M ticks, so a
   0.6M-tick deadline separates stalls from slow runs. *)
let census_protocols = [ "blockack-multi"; "selective-repeat"; "blockack-simple" ]
let census_rtos = [ 300; 400; 600; 1000 ]
let census_bottlenecks = [ (5, 3); (5, 10); (10, 5); (10, 10); (20, 4) ]

let census () =
  List.concat_map
    (fun name ->
      let entry = Option.get (Registry.find name) in
      List.concat_map
        (fun bottleneck ->
          List.concat_map
            (fun rto ->
              List.filter_map
                (fun window ->
                  let r =
                    Harness.run entry.Registry.protocol ~seed:3 ~messages:600
                      ~config:(Registry.config ~window ~rto entry ())
                      ~data_delay:(Ba_channel.Dist.Constant 50)
                      ~ack_delay:(Ba_channel.Dist.Constant 50) ~data_bottleneck:bottleneck
                      ~deadline:600_000 ()
                  in
                  if Harness.correct r then None
                  else begin
                    let service, queue = bottleneck in
                    Format.printf "census: %s (%d,%d) rto=%d w=%d: %a@." name service queue rto
                      window Harness.pp_result r;
                    Some (name, bottleneck, rto, window, r.Harness.delivered)
                  end)
                (List.init 31 (fun i -> i + 2)))
            census_rtos)
        census_bottlenecks)
    census_protocols

(* Every census stall is blockack-multi at rto 300, stopped for good at
   the delivered count given. *)
let census_recorded =
  List.map
    (fun (bottleneck, window, delivered) -> ("blockack-multi", bottleneck, 300, window, delivered))
    [
      ((10, 10), 24, 81);
      ((10, 10), 25, 84);
      ((10, 10), 30, 129);
      ((10, 10), 31, 164);
      ((10, 10), 32, 201);
      ((20, 4), 11, 37);
      ((20, 4), 12, 40);
      ((20, 4), 13, 56);
    ]

let () =
  let t0 = Unix.gettimeofday () in
  let stalled = pressure () in
  let t1 = Unix.gettimeofday () in
  let windows = a2 () in
  let t2 = Unix.gettimeofday () in
  let census_stalls = census () in
  let t3 = Unix.gettimeofday () in
  Printf.printf "liveness: pressure sweep %.1f s, a2 sweep %.1f s, census %.1f s\n" (t1 -. t0)
    (t2 -. t1) (t3 -. t2);
  let pressure_ok = stalled = [ (4095, Config.Drop_furthest) ]
  and a2_ok = windows = [ 32; 51; 52; 63 ]
  and census_ok = List.sort compare census_stalls = List.sort compare census_recorded in
  if not pressure_ok then
    print_endline "liveness: pressure sweep differs from the recorded (seed 4095, drop-furthest)";
  if not a2_ok then print_endline "liveness: a2 sweep differs from the recorded w = 32, 51, 52, 63";
  if not census_ok then
    print_endline
      "liveness: census differs from the recorded 8 blockack-multi stalls at rto 300";
  if pressure_ok && a2_ok && census_ok then print_endline "liveness: ok" else exit 1
