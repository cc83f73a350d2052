(* The deterministic domain pool (also wired to the `parallel-smoke`
   alias): ordered collection, exception propagation, and the
   end-to-end guarantee the campaign runners advertise — a chaos
   campaign or scaling sweep is structurally identical at --jobs 1 and
   --jobs 4, even on a single-core host. *)

let check = Alcotest.check

module Pool = Ba_parallel.Pool
module Chaos = Ba_verify.Chaos
module E = Ba_experiments.Experiments

(* [map_chunks ~chunk:1] is the one-task-per-element map (the soak
   runner's shape). *)
let test_map_matches_list_map () =
  let xs = List.init 100 Fun.id in
  let f x = (x * x) - (3 * x) in
  check
    Alcotest.(list int)
    "jobs=4 = List.map" (List.map f xs)
    (Pool.map_chunks ~jobs:4 ~chunk:1 f xs);
  check
    Alcotest.(list int)
    "jobs=1 = List.map" (List.map f xs)
    (Pool.map_chunks ~jobs:1 ~chunk:1 f xs)

let test_map_preserves_order () =
  (* Make late-submitted tasks finish first by giving early ones more
     work: ordered collection must not depend on completion order. *)
  let xs = List.init 64 Fun.id in
  let f x =
    let spin = (64 - x) * 2000 in
    let acc = ref 0 in
    for i = 1 to spin do
      acc := (!acc + i) land 0xffff
    done;
    ignore (Sys.opaque_identity !acc);
    x
  in
  check Alcotest.(list int) "input order" xs (Pool.map_chunks ~jobs:4 ~chunk:1 f xs)

exception Boom of int

let test_exception_propagates () =
  let xs = List.init 20 Fun.id in
  let run jobs =
    match
      Pool.map_chunks ~jobs ~chunk:1 (fun x -> if x mod 7 = 3 then raise (Boom x) else x) xs
    with
    | _ -> Alcotest.fail "expected Boom to propagate"
    | exception Boom x -> x
  in
  (* First failure in input order (3, not 10 or 17), at any job count. *)
  check Alcotest.int "jobs=1 first failure" 3 (run 1);
  check Alcotest.int "jobs=4 first failure" 3 (run 4)

(* The shared pool outlives a batch: a second one at the same [jobs]
   spawns no domain. *)
let test_pool_reuse_across_batches () =
  let a = Pool.map_chunks ~jobs:3 (fun i -> i * 2) (List.init 10 Fun.id) in
  let before = Pool.spawned_domains () in
  let b = Pool.map_chunks ~jobs:3 string_of_int (List.init 5 Fun.id) in
  check Alcotest.(list int) "first batch" [ 0; 2; 4; 6; 8; 10; 12; 14; 16; 18 ] a;
  check Alcotest.(list string) "second batch" [ "0"; "1"; "2"; "3"; "4" ] b;
  check Alcotest.int "second batch spawned nothing" before (Pool.spawned_domains ())

let test_invalid_jobs_rejected () =
  List.iter
    (fun jobs ->
      match Pool.map_chunks ~jobs succ [ 1; 2; 3 ] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "jobs=%d accepted" jobs)
    [ 0; -1 ]

(* The inline path (jobs = 1, or an empty list) checks [chunk] too, so
   a bad chunk fails the same way on every host and at every [jobs]. *)
let test_invalid_chunk_rejected () =
  List.iter
    (fun (chunk, jobs, xs) ->
      match Pool.map_chunks ~jobs ~chunk succ xs with
      | exception Invalid_argument msg ->
          check Alcotest.string "message" "Pool.map_chunks: chunk must be >= 1" msg
      | _ -> Alcotest.failf "chunk=%d accepted at jobs=%d on %d elements" chunk jobs (List.length xs))
    (List.concat_map
       (fun chunk ->
         List.concat_map (fun jobs -> [ (chunk, jobs, []); (chunk, jobs, [ 1; 2; 3 ]) ]) [ 1; 2 ])
       [ 0; -1 ])

let test_chaos_campaign_jobs_invariant () =
  let seeds = List.init 6 (fun i -> i + 1) in
  let run jobs =
    Chaos.run_campaign ~messages:20 ~seeds ~jobs ~config:Chaos.gbn_config
      Ba_baselines.Go_back_n.protocol
  in
  (* Reports are plain data, so structural equality covers every count,
     every class and the replayable first_failure cells. *)
  check Alcotest.bool "campaign identical at jobs 1 vs 4" true (run 1 = run 4)

let test_map_chunks_matches_list_map () =
  let xs = List.init 257 Fun.id in
  let f x = (7 * x) - (x * x / 3) in
  List.iter
    (fun (jobs, chunk) ->
      check
        Alcotest.(list int)
        (Printf.sprintf "jobs=%d chunk=%s" jobs
           (match chunk with Some c -> string_of_int c | None -> "auto"))
        (List.map f xs)
        (Pool.map_chunks ~jobs ?chunk f xs))
    [ (1, None); (4, None); (4, Some 1); (4, Some 7); (4, Some 1000); (3, Some 64) ];
  check Alcotest.(list int) "empty input" [] (Pool.map_chunks ~jobs:4 f [])

let test_map_chunks_exception_order () =
  let xs = List.init 50 Fun.id in
  List.iter
    (fun jobs ->
      match
        Pool.map_chunks ~jobs ~chunk:4
          (fun x -> if x mod 11 = 5 then raise (Boom x) else x)
          xs
      with
      | _ -> Alcotest.fail "expected Boom to propagate"
      | exception Boom x ->
          check Alcotest.int (Printf.sprintf "jobs=%d first failure" jobs) 5 x)
    [ 1; 4 ]

let test_jobs1_spawns_no_domain () =
  (* The zero-domain pin: sequential work must never pay for domains. *)
  let before = Pool.spawned_domains () in
  ignore (Pool.map_chunks ~jobs:1 succ (List.init 100 Fun.id));
  ignore (Pool.map_chunks ~jobs:1 ~chunk:1 succ (List.init 100 Fun.id));
  check Alcotest.int "jobs=1 spawned nothing" before (Pool.spawned_domains ());
  (* And whatever the requested parallelism, spawns are capped at the
     hardware: jobs=64 on an n-core host starts at most n-1 domains. *)
  let cap = max 0 (Domain.recommended_domain_count () - 1) in
  ignore (Pool.map_chunks ~jobs:64 succ (List.init 100 Fun.id));
  check Alcotest.bool "spawns capped at hardware" true
    (Pool.spawned_domains () - before <= cap)

(* An absurd [jobs] runs like [max_jobs]: same result, and no more
   domains than the hardware cap. *)
let test_jobs_clamped_at_max () =
  check Alcotest.int "max_jobs = 4x hardware" (4 * Domain.recommended_domain_count ())
    (Pool.max_jobs ());
  let xs = List.init 100 Fun.id in
  let before = Pool.spawned_domains () in
  check
    Alcotest.(list int)
    "absurd jobs = List.map" (List.map succ xs)
    (Pool.map_chunks ~jobs:(Pool.max_jobs () + 1000) succ xs);
  check Alcotest.bool "absurd jobs spawn within the hardware cap" true
    (Pool.spawned_domains () - before <= max 0 (Domain.recommended_domain_count () - 1))

let test_s1_sweep_jobs_invariant () =
  let a = E.s1_scaling ~jobs:1 ~quick:true () in
  let b = E.s1_scaling ~jobs:4 ~quick:true () in
  check Alcotest.(list (list string)) "S1 rows identical at jobs 1 vs 4" a.E.rows b.E.rows;
  check Alcotest.(list string) "S1 headers identical" a.E.headers b.E.headers

let test_t2_grid_jobs_invariant () =
  let a = E.t2_verification ~jobs:1 ~quick:true () in
  let b = E.t2_verification ~jobs:4 ~quick:true () in
  check Alcotest.(list (list string)) "T2 rows identical at jobs 1 vs 4" a.E.rows b.E.rows

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map matches List.map" `Quick test_map_matches_list_map;
          Alcotest.test_case "order preserved under skew" `Quick test_map_preserves_order;
          Alcotest.test_case "exceptions propagate in order" `Quick test_exception_propagates;
          Alcotest.test_case "pool reuse across batches" `Quick test_pool_reuse_across_batches;
          Alcotest.test_case "invalid jobs rejected" `Quick test_invalid_jobs_rejected;
          Alcotest.test_case "invalid chunk rejected at any jobs" `Quick
            test_invalid_chunk_rejected;
          Alcotest.test_case "map_chunks matches List.map" `Quick
            test_map_chunks_matches_list_map;
          Alcotest.test_case "map_chunks exception order" `Quick
            test_map_chunks_exception_order;
          Alcotest.test_case "jobs=1 spawns no domain" `Quick test_jobs1_spawns_no_domain;
          Alcotest.test_case "absurd jobs clamped" `Quick test_jobs_clamped_at_max;
        ] );
      ( "campaigns",
        [
          Alcotest.test_case "chaos campaign jobs-invariant" `Quick
            test_chaos_campaign_jobs_invariant;
          Alcotest.test_case "S1 sweep jobs-invariant" `Quick test_s1_sweep_jobs_invariant;
          Alcotest.test_case "T2 grid jobs-invariant" `Quick test_t2_grid_jobs_invariant;
        ] );
    ]
