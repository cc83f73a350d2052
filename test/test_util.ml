(* Unit and property tests for ba_util: rng, modseq, ring buffer,
   stats, histogram, table, counters, qsketch. *)

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Ba_util.Rng.create 7 and b = Ba_util.Rng.create 7 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Ba_util.Rng.bits64 a) (Ba_util.Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Ba_util.Rng.create 7 and b = Ba_util.Rng.create 8 in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Ba_util.Rng.bits64 a) (Ba_util.Rng.bits64 b)) then differs := true
  done;
  check Alcotest.bool "streams differ" true !differs

let test_rng_copy () =
  let a = Ba_util.Rng.create 99 in
  ignore (Ba_util.Rng.bits64 a);
  let b = Ba_util.Rng.copy a in
  for _ = 1 to 50 do
    check Alcotest.int64 "copy tracks" (Ba_util.Rng.bits64 a) (Ba_util.Rng.bits64 b)
  done

let test_rng_split_independent () =
  let a = Ba_util.Rng.create 3 in
  let b = Ba_util.Rng.split a in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Ba_util.Rng.bits64 a) (Ba_util.Rng.bits64 b)) then differs := true
  done;
  check Alcotest.bool "split differs from parent" true !differs

let test_rng_int_range () =
  let r = Ba_util.Rng.create 1 in
  for _ = 1 to 10_000 do
    let v = Ba_util.Rng.int r 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v
  done

let test_rng_int_covers_all () =
  let r = Ba_util.Rng.create 5 in
  let seen = Array.make 5 false in
  for _ = 1 to 1_000 do
    seen.(Ba_util.Rng.int r 5) <- true
  done;
  Array.iteri (fun i b -> check Alcotest.bool (Printf.sprintf "value %d seen" i) true b) seen

let test_rng_int_in () =
  let r = Ba_util.Rng.create 2 in
  for _ = 1 to 1_000 do
    let v = Ba_util.Rng.int_in r 10 20 in
    if v < 10 || v > 20 then Alcotest.failf "int_in out of range: %d" v
  done

let test_rng_float_range () =
  let r = Ba_util.Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Ba_util.Rng.float r 3.0 in
    if v < 0. || v >= 3.0 then Alcotest.failf "float out of range: %f" v
  done

let test_rng_bernoulli_extremes () =
  let r = Ba_util.Rng.create 4 in
  for _ = 1 to 100 do
    check Alcotest.bool "p=0 never" false (Ba_util.Rng.bernoulli r 0.);
    check Alcotest.bool "p=1 always" true (Ba_util.Rng.bernoulli r 1.)
  done

let test_rng_bernoulli_rate () =
  let r = Ba_util.Rng.create 4 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Ba_util.Rng.bernoulli r 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  if abs_float (rate -. 0.3) > 0.01 then Alcotest.failf "bernoulli rate %f too far from 0.3" rate

let test_rng_exponential_mean () =
  let r = Ba_util.Rng.create 6 in
  let sum = ref 0. in
  let n = 100_000 in
  for _ = 1 to n do
    sum := !sum +. Ba_util.Rng.exponential r 50.
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 50.) > 2. then Alcotest.failf "exponential mean %f too far from 50" mean

let test_rng_geometric () =
  let r = Ba_util.Rng.create 8 in
  check Alcotest.int "p=1 gives 0" 0 (Ba_util.Rng.geometric r 1.0);
  let sum = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    sum := !sum + Ba_util.Rng.geometric r 0.5
  done;
  (* Mean of failures-before-success at p=0.5 is 1. *)
  let mean = float_of_int !sum /. float_of_int n in
  if abs_float (mean -. 1.0) > 0.05 then Alcotest.failf "geometric mean %f too far from 1" mean

let test_rng_shuffle_permutation () =
  let r = Ba_util.Rng.create 12 in
  let a = Array.init 100 (fun i -> i) in
  Ba_util.Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "is a permutation" (Array.init 100 (fun i -> i)) sorted

let reference_symbols ~seed alphabet n =
  let r = Ba_util.Rng.create seed in
  String.init n (fun _ -> alphabet.[Ba_util.Rng.int r (String.length alphabet)])

let kernel_symbols ~seed alphabet n =
  let b = Bytes.make (n + 4) '.' in
  Ba_util.Rng.fill_symbols ~seed alphabet b ~pos:2 ~len:n;
  Bytes.sub_string b 0 2 ^ "|" ^ Bytes.sub_string b 2 n ^ "|" ^ Bytes.sub_string b (n + 2) 2

(* Every alphabet length is its own modulus and rejection limit; the
   36-symbol instance has a constant modulus, the others a variable one. *)
let prop_rng_symbols_match_reference =
  QCheck.Test.make ~name:"fill_symbols equals the per-byte Rng.int loop" ~count:500
    QCheck.(
      triple
        (oneof [ int; oneofl [ 0; -1; max_int; min_int; max_int / 3 ] ])
        (int_range 0 600)
        (oneof [ int_range 1 300; oneofl [ 1; 2; 36; 256 ] ]))
    (fun (seed, n, m) ->
      let alphabet = String.init m (fun k -> Char.chr (k land 255)) in
      let expected = reference_symbols ~seed alphabet n in
      String.equal (kernel_symbols ~seed alphabet n) ("..|" ^ expected ^ "|..")
      && Ba_util.Rng.symbols_match ~seed alphabet expected ~pos:0 ~len:n)

let test_rng_symbols_edges () =
  let alphabet = "abcdefghijklmnopqrstuvwxyz0123456789" in
  let s = reference_symbols ~seed:3 alphabet 64 in
  check Alcotest.bool "suffix matches" true
    (Ba_util.Rng.symbols_match ~seed:3 alphabet ("xx" ^ s) ~pos:2 ~len:64);
  let b = Bytes.of_string s in
  Bytes.set b 63 (if s.[63] = 'a' then 'b' else 'a');
  check Alcotest.bool "last byte differs" false
    (Ba_util.Rng.symbols_match ~seed:3 alphabet (Bytes.to_string b) ~pos:0 ~len:64);
  Alcotest.check_raises "empty alphabet" (Invalid_argument "Rng.fill_symbols: empty alphabet")
    (fun () -> Ba_util.Rng.fill_symbols ~seed:0 "" (Bytes.create 1) ~pos:0 ~len:1);
  Alcotest.check_raises "range" (Invalid_argument "Rng.symbols_match: range out of bounds")
    (fun () -> ignore (Ba_util.Rng.symbols_match ~seed:0 alphabet "abc" ~pos:2 ~len:2))

(* ------------------------------------------------------------------ *)
(* Modseq *)

let test_modseq_wrap () =
  check Alcotest.int "wrap pos" 3 (Ba_util.Modseq.wrap ~n:8 11);
  check Alcotest.int "wrap neg" 5 (Ba_util.Modseq.wrap ~n:8 (-3));
  check Alcotest.int "wrap zero" 0 (Ba_util.Modseq.wrap ~n:8 0);
  check Alcotest.int "wrap exact" 0 (Ba_util.Modseq.wrap ~n:8 8)

let test_modseq_succ_add_sub () =
  check Alcotest.int "succ wraps" 0 (Ba_util.Modseq.succ ~n:4 3);
  check Alcotest.int "add" 1 (Ba_util.Modseq.add ~n:4 3 2);
  check Alcotest.int "sub" 3 (Ba_util.Modseq.sub ~n:4 1 2)

let test_modseq_distance () =
  check Alcotest.int "forward" 3 (Ba_util.Modseq.distance ~n:8 2 5);
  check Alcotest.int "wraparound" 5 (Ba_util.Modseq.distance ~n:8 5 2);
  check Alcotest.int "self" 0 (Ba_util.Modseq.distance ~n:8 4 4)

let test_modseq_in_window () =
  check Alcotest.bool "inside" true (Ba_util.Modseq.in_window ~n:8 ~lo:6 ~size:4 1);
  check Alcotest.bool "lower bound" true (Ba_util.Modseq.in_window ~n:8 ~lo:6 ~size:4 6);
  check Alcotest.bool "past end" false (Ba_util.Modseq.in_window ~n:8 ~lo:6 ~size:4 2);
  check Alcotest.bool "before" false (Ba_util.Modseq.in_window ~n:8 ~lo:6 ~size:4 5)

let test_modseq_reconstruct_examples () =
  (* The paper's band: x <= y < x + n. *)
  check Alcotest.int "same block" 13 (Ba_util.Modseq.reconstruct ~n:8 ~ref_:10 5);
  check Alcotest.int "next block" 17 (Ba_util.Modseq.reconstruct ~n:8 ~ref_:10 1);
  check Alcotest.int "at anchor" 10 (Ba_util.Modseq.reconstruct ~n:8 ~ref_:10 2);
  check Alcotest.int "zero anchor" 6 (Ba_util.Modseq.reconstruct ~n:8 ~ref_:0 6)

let prop_modseq_reconstruct =
  (* Paper equations 12-14: f(x, y mod n) = y whenever 0 <= x <= y < x + n. *)
  QCheck.Test.make ~name:"reconstruct recovers y in the band" ~count:2000
    QCheck.(triple (int_bound 10_000) (int_bound 500) (Arb.int_range 1 64))
    (fun (x, offset, n) ->
      QCheck.assume (offset < n);
      let y = x + offset in
      Ba_util.Modseq.reconstruct ~n ~ref_:x (y mod n) = y)

let prop_modseq_reconstruct_outside =
  (* Outside the band the reconstruction must NOT equal y (it aliases). *)
  QCheck.Test.make ~name:"reconstruct aliases outside the band" ~count:2000
    QCheck.(triple (int_bound 10_000) (int_range 0 500) (Arb.int_range 1 64))
    (fun (x, extra, n) ->
      let y = x + n + extra in
      Ba_util.Modseq.reconstruct ~n ~ref_:x (y mod n) <> y)

let prop_modseq_distance_inverse =
  QCheck.Test.make ~name:"distance is add-inverse" ~count:1000
    QCheck.(triple (int_bound 1000) (int_bound 1000) (Arb.int_range 1 64))
    (fun (a, b, n) ->
      let a = a mod n and b = b mod n in
      Ba_util.Modseq.add ~n a (Ba_util.Modseq.distance ~n a b) = b)

(* ------------------------------------------------------------------ *)
(* Ring_buffer *)

module Ring_buffer = Ba_util.Ring_buffer

let get rb i = if Ring_buffer.mem rb i then Some (Ring_buffer.find rb i) else None

let test_ring_set_get () =
  let rb = Ring_buffer.create ~limit:4 "" in
  Ring_buffer.set rb ~lo:0 0 "a";
  Ring_buffer.set rb ~lo:0 3 "d";
  check (Alcotest.option Alcotest.string) "get 0" (Some "a") (get rb 0);
  check (Alcotest.option Alcotest.string) "get 3" (Some "d") (get rb 3);
  check (Alcotest.option Alcotest.string) "absent" None (get rb 1);
  Alcotest.check_raises "find absent" Not_found (fun () -> ignore (Ring_buffer.find rb 1));
  check Alcotest.int "occupancy" 2 (Ring_buffer.occupancy rb)

let test_ring_wraparound () =
  let rb = Ring_buffer.create ~limit:4 "" in
  Ring_buffer.set rb ~lo:2 2 "x";
  Ring_buffer.remove rb 2;
  Ring_buffer.set rb ~lo:3 6 "y";
  (* 6 mod 4 = 2: same slot, different absolute index. *)
  check Alcotest.int "grown to the limit" 4 (Ring_buffer.capacity rb);
  check (Alcotest.option Alcotest.string) "new index" (Some "y") (get rb 6);
  check (Alcotest.option Alcotest.string) "old index gone" None (get rb 2)

let test_ring_collision () =
  let rb = Ring_buffer.create ~limit:4 "" in
  Ring_buffer.set rb ~lo:0 1 "a";
  Alcotest.check_raises "slot collision" (Invalid_argument "Ring_buffer.set: slot collision (index 5 vs live 1, capacity 4)")
    (fun () -> Ring_buffer.set rb ~lo:0 5 "b")

let test_ring_overwrite_same_index () =
  let rb = Ring_buffer.create ~limit:4 "" in
  Ring_buffer.set rb ~lo:0 1 "a";
  Ring_buffer.set rb ~lo:0 1 "b";
  check (Alcotest.option Alcotest.string) "overwritten" (Some "b") (get rb 1);
  check Alcotest.int "occupancy stays 1" 1 (Ring_buffer.occupancy rb)

let test_ring_remove_and_iter () =
  let rb = Ring_buffer.create ~limit:8 "" in
  List.iter (fun i -> Ring_buffer.set rb ~lo:0 i (string_of_int i)) [ 0; 1; 2; 3 ];
  Ring_buffer.remove rb 1;
  Ring_buffer.remove rb 1;
  (* idempotent *)
  check Alcotest.int "occupancy after remove" 3 (Ring_buffer.occupancy rb);
  let collected = ref [] in
  Ring_buffer.iter (fun i v -> collected := (i, v) :: !collected) rb;
  check Alcotest.int "iter count" 3 (List.length !collected)

let test_ring_clear () =
  let rb = Ring_buffer.create ~limit:4 "" in
  Ring_buffer.set rb ~lo:0 0 "a";
  Ring_buffer.clear rb;
  check Alcotest.int "cleared" 0 (Ring_buffer.occupancy rb);
  check Alcotest.bool "mem false" false (Ring_buffer.mem rb 0)

let test_ring_invalid_capacity () =
  Alcotest.check_raises "zero limit"
    (Invalid_argument "Ring_buffer.create: limit must be positive") (fun () ->
      ignore (Ring_buffer.create ~limit:0 ""))

(* The store against a [Map] model, over a window [lo, lo + limit) that
   slides forward. A slide either removes the keys it passes, as the
   receivers do, or leaves them dead, as the pull log does; dead keys
   are the store's to overwrite or drop, so only keys at or above [lo]
   are compared. *)
module Model = Map.Make (Int)

type ring_op = Set of int * int | Remove of int | Find of int | Slide of int * bool | Clear

let ring_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map2 (fun d v -> Set (d, v)) (int_bound 63) (int_bound 1000));
        (2, map (fun d -> Remove d) (int_bound 63));
        (2, map (fun d -> Find d) (int_bound 63));
        (3, map2 (fun n drain -> Slide (n, drain)) (int_bound 4) bool);
        (1, return Clear);
      ])

let pp_ring_op = function
  | Set (d, v) -> Printf.sprintf "set +%d=%d" d v
  | Remove d -> Printf.sprintf "remove +%d" d
  | Find d -> Printf.sprintf "find +%d" d
  | Slide (n, drain) -> Printf.sprintf "slide %d%s" n (if drain then " drain" else "")
  | Clear -> "clear"

let prop_ring_matches_model =
  QCheck.Test.make ~name:"keyed store matches a map over a sliding window" ~count:500
    QCheck.(
      pair (int_range 1 64)
        (make ~print:(fun ops -> String.concat "; " (List.map pp_ring_op ops))
           Gen.(list_size (int_range 1 200) ring_op_gen)))
    (fun (limit, ops) ->
      let rb = Ring_buffer.create ~limit (-1) in
      let lo = ref 0 and model = ref Model.empty and dead = ref false in
      let agrees () =
        Ring_buffer.capacity rb <= limit
        && List.for_all
             (fun k ->
               match Model.find_opt k !model with
               | Some v -> Ring_buffer.mem rb k && Ring_buffer.find rb k = v
               | None -> not (Ring_buffer.mem rb k))
             (List.init limit (fun d -> !lo + d))
        && (!dead || Ring_buffer.occupancy rb = Model.cardinal !model)
      in
      List.for_all
        (fun op ->
          (match op with
          | Set (d, v) ->
              let k = !lo + (d mod limit) in
              Ring_buffer.set rb ~lo:!lo k v;
              model := Model.add k v !model
          | Remove d ->
              let k = !lo + (d mod limit) in
              Ring_buffer.remove rb k;
              model := Model.remove k !model
          | Find d -> (
              let k = !lo + (d mod limit) in
              match Ring_buffer.find rb k with
              | v -> if Model.find_opt k !model <> Some v then QCheck.Test.fail_report "find"
              | exception Not_found ->
                  if Model.mem k !model then QCheck.Test.fail_report "find: Not_found")
          | Slide (n, drain) ->
              for k = !lo to !lo + n - 1 do
                if drain then Ring_buffer.remove rb k else if Model.mem k !model then dead := true;
                model := Model.remove k !model
              done;
              lo := !lo + n
          | Clear ->
              Ring_buffer.clear rb;
              model := Model.empty;
              dead := false);
          agrees ())
        ops)

(* Words the minor heap grows by across [f ()], net of what reading the
   counter itself costs, as test_core measures [Workload.matches]. *)
let minor_words f =
  let delta f =
    Gc.minor ();
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  f ();
  int_of_float (delta f -. delta ignore)

let test_ring_allocates_nothing () =
  let rb = Ring_buffer.create ~limit:16 "" in
  Ring_buffer.set rb ~lo:0 15 "p";
  check Alcotest.int "grown to the limit" 16 (Ring_buffer.capacity rb);
  (* [minor_words] runs its function more than once, so the window keeps
     sliding from where the last run left it. *)
  let sink = ref "" and next = ref 16 in
  check Alcotest.int "set/find/remove allocate nothing" 0
    (minor_words (fun () ->
         for _ = 1 to 1_000 do
           let k = !next in
           Ring_buffer.set rb ~lo:(k - 15) k "p";
           sink := Ring_buffer.find rb k;
           if Ring_buffer.mem rb (k - 1) then Ring_buffer.remove rb (k - 1);
           incr next
         done))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean_var () =
  let s = Ba_util.Stats.create 8 in
  List.iter (Ba_util.Stats.add s) [ 2; 4; 4; 4; 5; 5; 7; 9 ];
  check Alcotest.int "count" 8 (Ba_util.Stats.count s);
  check (Alcotest.float 1e-9) "mean" 5.0 (Ba_util.Stats.mean s);
  check (Alcotest.float 1e-9) "variance" (32. /. 7.) (Ba_util.Stats.variance s)

let test_stats_empty () =
  let s = Ba_util.Stats.create 0 in
  check (Alcotest.float 1e-9) "empty mean" 0. (Ba_util.Stats.mean s);
  check (Alcotest.float 1e-9) "empty variance" 0. (Ba_util.Stats.variance s)

let test_stats_percentile () =
  let s = Ba_util.Stats.create 101 in
  List.iter (Ba_util.Stats.add s) (List.init 101 Fun.id);
  check (Alcotest.float 1e-9) "p50" 50. (Ba_util.Stats.percentile s 0.5);
  check (Alcotest.float 1e-9) "p0" 0. (Ba_util.Stats.percentile s 0.);
  check (Alcotest.float 1e-9) "p100" 100. (Ba_util.Stats.percentile s 1.)

let test_stats_summary () =
  let s = Ba_util.Stats.create 3 in
  List.iter (Ba_util.Stats.add s) [ 1; 2; 3 ];
  let sum = Ba_util.Stats.summary s in
  check (Alcotest.float 1e-9) "min" 1. sum.Ba_util.Stats.min;
  check (Alcotest.float 1e-9) "max" 3. sum.Ba_util.Stats.max;
  check Alcotest.int "count" 3 sum.Ba_util.Stats.count

(* A column sized to its samples takes every [add] without a word of
   allocation: the int becomes a float inside [add], stored unboxed.
   [minor_words] runs its function more than once, so the column has
   room for every run. *)
let test_stats_add_allocates_nothing () =
  let s = Ba_util.Stats.create 4_000 in
  check Alcotest.int "1,000 adds allocate nothing" 0
    (minor_words (fun () ->
         for i = 1 to 1_000 do
           Ba_util.Stats.add s i
         done));
  check Alcotest.int "every add kept" 2_000 (Ba_util.Stats.count s)

(* A summary selects in a scratch column it keeps, so once that has grown
   to the longest column summarised it allocates its result only: the
   record and its boxed floats, the same at 10 samples as at 10,000. *)
let test_stats_summary_allocates_nothing () =
  let column n =
    let s = Ba_util.Stats.create n in
    for i = 1 to n do
      Ba_util.Stats.add s ((i * 7919) mod 1009)
    done;
    s
  in
  let long = column 10_000 and short = column 10 in
  let words s = minor_words (fun () -> ignore (Sys.opaque_identity (Ba_util.Stats.summary s))) in
  let result_words = words short in
  (* 8 fields and a header, 7 of them boxed floats of 2 words each *)
  if result_words > 9 + (7 * 2) + 2 then
    Alcotest.failf "a summary of 10 samples allocates %d words" result_words;
  check Alcotest.int "10,000 samples cost what 10 do" result_words (words long);
  check Alcotest.int "percentile allocates its result only" 2
    (minor_words (fun () -> ignore (Sys.opaque_identity (Ba_util.Stats.percentile long 0.99))));
  check (Alcotest.array (Alcotest.float 0.)) "the column keeps its order"
    (Array.init 10 (fun i -> float_of_int (((i + 1) * 7919) mod 1009)))
    (Ba_util.Stats.to_array short)

(* Selection places the order statistics a full sort would: p50, p90,
   p99 and any percentile read bit-identical to linear interpolation
   over [Array.sort compare], on columns of few distinct values (long
   runs of equal samples) as well as many. *)
let stats_select_equals_sort =
  QCheck.Test.make ~name:"summary and percentile equal a full sort's" ~count:500
    QCheck.(
      triple
        (list_of_size Gen.(int_range 1 300) (int_bound 1_000_000))
        (int_range 1 1_000_000) (float_bound_inclusive 1.))
    (fun (xs, spread, q) ->
      let xs = List.map (fun x -> x mod spread) xs in
      let s = Ba_util.Stats.create 0 in
      List.iter (Ba_util.Stats.add s) xs;
      let sorted = Array.of_list (List.map float_of_int xs) in
      Array.sort compare sorted;
      let n = Array.length sorted in
      let by_sort q =
        if n = 1 then sorted.(0)
        else
          let pos = q *. float_of_int (n - 1) in
          let lo = int_of_float (Float.floor pos) in
          let hi = min (n - 1) (lo + 1) in
          let frac = pos -. float_of_int lo in
          (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
      in
      let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) in
      let sum = Ba_util.Stats.summary s in
      same sum.Ba_util.Stats.p50 (by_sort 0.5)
      && same sum.Ba_util.Stats.p90 (by_sort 0.9)
      && same sum.Ba_util.Stats.p99 (by_sort 0.99)
      && same (Ba_util.Stats.percentile s q) (by_sort q)
      && Ba_util.Stats.to_array s = Array.of_list (List.map float_of_int xs))

(* A column sized to its samples is handed over without a copy, and the
   array handed over is never written again: the next add moves the
   column. A column with room left is copied. *)
let test_stats_full_column_handed_over () =
  let s = Ba_util.Stats.create 5 in
  List.iter (Ba_util.Stats.add s) [ 5; 4; 3; 2; 1 ];
  let a = Ba_util.Stats.to_array s in
  check Alcotest.bool "the column itself" true (a == Ba_util.Stats.to_array s);
  check Alcotest.int "no copy" 0
    (minor_words (fun () -> ignore (Sys.opaque_identity (Ba_util.Stats.to_array s))));
  ignore (Ba_util.Stats.summary s);
  Ba_util.Stats.add s 0;
  check (Alcotest.array (Alcotest.float 0.)) "untouched by summary and add"
    [| 5.; 4.; 3.; 2.; 1. |]
    a;
  let b = Ba_util.Stats.to_array s in
  check (Alcotest.array (Alcotest.float 0.)) "the grown column's samples"
    [| 5.; 4.; 3.; 2.; 1.; 0. |] b;
  check Alcotest.bool "a column with room is copied" false (b == Ba_util.Stats.to_array s)

(* Doubling a zero-length column stays at zero; the first add must
   still find room. *)
let test_stats_sized_zero () =
  let s = Ba_util.Stats.create 0 in
  List.iter (Ba_util.Stats.add s) (List.init 40 (fun i -> 40 - i));
  check Alcotest.int "count" 40 (Ba_util.Stats.count s);
  check (Alcotest.array (Alcotest.float 0.)) "samples in insertion order"
    (Array.init 40 (fun i -> float_of_int (40 - i)))
    (Ba_util.Stats.to_array s);
  let sum = Ba_util.Stats.summary s in
  check (Alcotest.float 1e-9) "min" 1. sum.Ba_util.Stats.min;
  check (Alcotest.float 1e-9) "max" 40. sum.Ba_util.Stats.max

let test_stats_ci95 () =
  let mean, hw = Ba_util.Stats.ci95 [ 10.; 10.; 10. ] in
  check (Alcotest.float 1e-9) "ci mean" 10. mean;
  check (Alcotest.float 1e-9) "ci halfwidth zero" 0. hw;
  let mean1, hw1 = Ba_util.Stats.ci95 [ 5. ] in
  check (Alcotest.float 1e-9) "single mean" 5. mean1;
  check (Alcotest.float 1e-9) "single halfwidth" 0. hw1

(* ------------------------------------------------------------------ *)
(* Histogram *)

let test_histogram_binning () =
  let h = Ba_util.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Ba_util.Histogram.add h) [ 0.; 1.9; 2.; 9.9; 10.; 100.; -5. ];
  check Alcotest.int "total" 7 (Ba_util.Histogram.total h);
  let counts = Ba_util.Histogram.counts h in
  check Alcotest.int "bin0 (incl. below-range)" 3 counts.(0);
  check Alcotest.int "bin1" 1 counts.(1);
  check Alcotest.int "last bin (incl. overflow)" 3 counts.(4)

let test_histogram_ranges () =
  let h = Ba_util.Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  let lo, hi = Ba_util.Histogram.bin_range h 2 in
  check (Alcotest.float 1e-9) "range lo" 4. lo;
  check (Alcotest.float 1e-9) "range hi" 6. hi

let test_histogram_render () =
  let h = Ba_util.Histogram.create ~lo:0. ~hi:4. ~bins:2 in
  List.iter (Ba_util.Histogram.add h) [ 1.; 1.; 3. ];
  let s = Ba_util.Histogram.render ~width:10 h in
  check Alcotest.bool "renders bars" true (String.length s > 0 && String.contains s '#')

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let s = Ba_util.Table.render ~headers:[ "name"; "value" ] [ [ "alpha"; "1" ]; [ "b"; "22" ] ] in
  let lines = String.split_on_char '\n' s in
  check Alcotest.int "line count" 5 (List.length lines);
  (* header, rule, 2 rows, trailing newline *)
  check Alcotest.bool "numeric right-aligned" true
    (String.length (List.nth lines 2) = String.length (List.nth lines 3))

let test_table_pads_missing () =
  let s = Ba_util.Table.render ~headers:[ "a"; "b" ] [ [ "x" ] ] in
  check Alcotest.bool "no exception and content present" true (String.length s > 0)

let test_table_fmt_float () =
  check Alcotest.string "default decimals" "1.500" (Ba_util.Table.fmt_float 1.5);
  check Alcotest.string "custom decimals" "1.50" (Ba_util.Table.fmt_float ~decimals:2 1.5)

(* ------------------------------------------------------------------ *)
(* Counters *)

module Counters = Ba_util.Counters

let prop_counters_merge_is_a_sum =
  QCheck.Test.make ~count:200
    ~name:"merge_into is associative and commutative, with create () as identity"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ba_util.Rng.create seed in
      let block () =
        let t = Counters.create () in
        List.iter
          (fun k ->
            if Ba_util.Rng.bernoulli rng 0.5 then Counters.add t k (Ba_util.Rng.int rng 1000))
          Counters.all;
        t
      in
      let merged a b =
        let m = Counters.create () in
        Counters.merge_into m a;
        Counters.merge_into m b;
        m
      in
      let a = block () and b = block () and c = block () in
      merged (merged a b) c = merged a (merged b c)
      && merged a b = merged b a
      && merged (Counters.create ()) a = a
      && merged a (Counters.create ()) = a)

let test_counters_names () =
  let names = List.map Counters.name Counters.all in
  List.iter (fun n -> check Alcotest.bool "non-empty name" true (n <> "")) names;
  check Alcotest.int "distinct names" (List.length names)
    (List.length (List.sort_uniq compare names));
  check (Alcotest.list Alcotest.int) "each key its own slot, in order"
    (List.init (Array.length (Counters.create ())) Fun.id)
    (List.map Counters.index Counters.all)

let test_counters_get_add () =
  let t = Counters.create () in
  List.iter (fun k -> check Alcotest.int "fresh block is zero" 0 (Counters.get t k)) Counters.all;
  Counters.add t Lost 3;
  Counters.add t Lost 4;
  check Alcotest.int "adds accumulate" 7 (Counters.get t Lost);
  List.iter
    (fun k ->
      if k <> Counters.Lost then check Alcotest.int "other keys untouched" 0 (Counters.get t k))
    Counters.all

(* ------------------------------------------------------------------ *)
(* Qsketch *)

module Qsketch = Ba_util.Qsketch

(* The documented accuracy contract: the sketch's estimate for q lands
   within 3/capacity of q in *rank* — i.e. the estimate sits between the
   exact (q - eps)- and (q + eps)-quantiles of the stream. Rank error is
   the right yardstick for a quantile sketch: value error is unbounded
   on heavy tails however good the sketch. *)
let rank_error_ok ~sorted ~sketch q =
  let eps = 3. /. float_of_int (Qsketch.capacity sketch) in
  let est = Qsketch.quantile sketch q in
  let exact p =
    let a = sorted and n = Array.length sorted in
    let pos = Stdlib.max 0. (Stdlib.min (float_of_int (n - 1)) (p *. float_of_int (n - 1))) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Stdlib.min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    (a.(lo) *. (1. -. frac)) +. (a.(hi) *. frac)
  in
  let lo = exact (Stdlib.max 0. (q -. eps)) and hi = exact (Stdlib.min 1. (q +. eps)) in
  if est < lo -. 1e-9 || est > hi +. 1e-9 then
    Alcotest.failf "q=%.2f estimate %.4f outside exact rank band [%.4f, %.4f]" q est lo hi

let sketch_of samples =
  let s = Qsketch.create () in
  Array.iter (Qsketch.add s) samples;
  s

let check_stream name samples =
  let s = sketch_of samples in
  let sorted = Array.copy samples in
  Array.sort compare sorted;
  check Alcotest.int (name ^ " count exact") (Array.length samples) (Qsketch.count s);
  check (Alcotest.float 1e-9) (name ^ " min exact") sorted.(0) (Qsketch.min s);
  check (Alcotest.float 1e-9) (name ^ " max exact")
    sorted.(Array.length sorted - 1)
    (Qsketch.max s);
  check Alcotest.bool (name ^ " bounded nodes") true (Qsketch.nodes s <= Qsketch.capacity s);
  List.iter (fun q -> rank_error_ok ~sorted ~sketch:s q) [ 0.5; 0.9; 0.99 ]

(* Accuracy on the three stream shapes the soak can produce: uniform
   noise, a heavy (Pareto-ish) latency tail, and the adversarial
   fully-sorted streams that bias naive merge rules. *)
let test_qsketch_uniform () =
  let rng = Ba_util.Rng.create 41 in
  check_stream "uniform" (Array.init 10_000 (fun _ -> Ba_util.Rng.float rng 1000.))

let test_qsketch_heavy_tail () =
  let rng = Ba_util.Rng.create 42 in
  check_stream "heavy tail"
    (Array.init 10_000 (fun _ ->
         let u = Stdlib.max 1e-6 (Ba_util.Rng.float rng 1.) in
         1. /. (u ** 1.5)))

let test_qsketch_sorted_adversarial () =
  check_stream "ascending" (Array.init 10_000 (fun i -> float_of_int i));
  check_stream "descending" (Array.init 10_000 (fun i -> float_of_int (10_000 - i)))

let test_qsketch_exact_when_small () =
  (* Below capacity nothing ever collapses: every sample is its own
     centroid and the quantiles are genuine order statistics. *)
  let s = Qsketch.create ~capacity:64 () in
  List.iter (Qsketch.add s) [ 5.; 1.; 3.; 2.; 4. ];
  check Alcotest.int "one node per sample" 5 (Qsketch.nodes s);
  check (Alcotest.float 1e-9) "median exact" 3. (Qsketch.quantile s 0.5);
  check (Alcotest.float 1e-9) "q0 is min" 1. (Qsketch.quantile s 0.);
  check (Alcotest.float 1e-9) "q1 is max" 5. (Qsketch.quantile s 1.)

let test_qsketch_flat_memory () =
  let s = Qsketch.create ~capacity:32 () in
  let probe = ref [] in
  for i = 1 to 100_000 do
    Qsketch.add s (float_of_int ((i * 7919) mod 1009));
    if i mod 10_000 = 0 then probe := (Qsketch.nodes s, Qsketch.mem_bytes s) :: !probe
  done;
  (* Saturated long ago: every probe reports the same node count and the
     same constant byte footprint. *)
  (match !probe with
  | [] -> Alcotest.fail "no probes"
  | (n0, b0) :: rest ->
      List.iter
        (fun (n, b) ->
          check Alcotest.int "node count flat" n0 n;
          check Alcotest.int "mem bytes flat" b0 b)
        rest);
  check Alcotest.int "count still exact" 100_000 (Qsketch.count s);
  (* The constant is the sketch's whole reachable heap. *)
  List.iter
    (fun capacity ->
      let s = Qsketch.create ~capacity () in
      for i = 1 to 10 * capacity do
        Qsketch.add s (float_of_int i)
      done;
      check Alcotest.int
        (Printf.sprintf "mem bytes are the reachable bytes at capacity %d" capacity)
        (8 * Obj.reachable_words (Obj.repr s))
        (Qsketch.mem_bytes s))
    [ 8; 64 ]

let test_qsketch_deterministic () =
  let build () =
    let s = Qsketch.create () in
    for i = 0 to 9_999 do
      Qsketch.add s (float_of_int ((i * 31) mod 977))
    done;
    (Qsketch.nodes s, Qsketch.quantile s 0.5, Qsketch.quantile s 0.99)
  in
  check
    Alcotest.(triple int (float 0.) (float 0.))
    "same stream, same sketch" (build ()) (build ())

let test_qsketch_validation () =
  Alcotest.check_raises "tiny capacity"
    (Invalid_argument "Qsketch.create: capacity must be >= 8") (fun () ->
      ignore (Qsketch.create ~capacity:4 ()));
  let s = Qsketch.create () in
  Alcotest.check_raises "empty quantile" (Invalid_argument "Qsketch.quantile: empty")
    (fun () -> ignore (Qsketch.quantile s 0.5));
  Qsketch.add s 1.;
  Alcotest.check_raises "q out of range"
    (Invalid_argument "Qsketch.quantile: q out of [0, 1]") (fun () ->
      ignore (Qsketch.quantile s 1.5))

(* Merging must (a) conserve the exact tallies, (b) stay within the rank
   bound of the pooled stream, and (c) be associative up to that same
   bound — the property that lets per-round telemetry fold in any
   grouping (sequential, chunked, tree) to the same answer. *)
let prop_qsketch_merge_associative =
  QCheck.Test.make ~count:60 ~name:"merge is associative within the rank-error bound"
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Ba_util.Rng.create seed in
      let part () =
        Array.init
          (200 + Ba_util.Rng.int rng 800)
          (fun _ -> Ba_util.Rng.float rng 500. ** (1. +. Ba_util.Rng.float rng 1.))
      in
      let a = part () and b = part () and c = part () in
      let sa = sketch_of a and sb = sketch_of b and sc = sketch_of c in
      let left = Qsketch.merge (Qsketch.merge sa sb) sc in
      let right = Qsketch.merge sa (Qsketch.merge sb sc) in
      let pooled = Array.concat [ a; b; c ] in
      let sorted = Array.copy pooled in
      Array.sort compare sorted;
      Qsketch.count left = Array.length pooled
      && Qsketch.count right = Array.length pooled
      && Qsketch.min left = Qsketch.min right
      && Qsketch.max left = Qsketch.max right
      && List.for_all
           (fun q ->
             rank_error_ok ~sorted ~sketch:left q;
             rank_error_ok ~sorted ~sketch:right q;
             (* The two groupings agree with each other within twice the
                single-sketch band. *)
             let eps = 6. /. float_of_int (Qsketch.capacity left) in
             let n = Array.length sorted in
             let rank v =
               let r = ref 0 in
               Array.iter (fun x -> if x <= v then incr r) sorted;
               float_of_int !r /. float_of_int n
             in
             Float.abs (rank (Qsketch.quantile left q) -. rank (Qsketch.quantile right q))
             <= eps +. 1e-9)
           [ 0.5; 0.9; 0.99 ])

(* The int entry points are the float one with the conversion (and the
   scaling) inside: the same centroids, quantiles and extremes, bit for
   bit, on a stream long enough to collapse; and no entry allocates. *)
let test_qsketch_int_entry () =
  let xs = Array.init 10_000 (fun i -> ((i * 7919) mod 1009) - 300) in
  let by_int = Qsketch.create () and by_float = Qsketch.create () in
  let scaled = Qsketch.create () and by_product = Qsketch.create () in
  let ms = 0.2 in
  Array.iter (Qsketch.add_int by_int) xs;
  Array.iter (fun x -> Qsketch.add by_float (float_of_int x)) xs;
  Array.iter (fun x -> Qsketch.add_scaled scaled x ms) xs;
  Array.iter (fun x -> Qsketch.add by_product (float_of_int x *. ms)) xs;
  let view s =
    ( (Qsketch.count s, Qsketch.nodes s),
      Qsketch.min s :: Qsketch.max s
      :: List.map (Qsketch.quantile s) [ 0.; 0.01; 0.5; 0.9; 0.99; 1. ] )
  in
  check
    Alcotest.(pair (pair int int) (list (float 0.)))
    "same sketch" (view by_float) (view by_int);
  check
    Alcotest.(pair (pair int int) (list (float 0.)))
    "same scaled sketch" (view by_product) (view scaled);
  let s = Qsketch.create () in
  check Alcotest.int "add_int allocates nothing" 0
    (minor_words (fun () ->
         for i = 1 to 1_000 do
           Qsketch.add_int s ((i * 31) mod 977)
         done));
  check Alcotest.int "add_scaled allocates nothing" 0
    (minor_words (fun () ->
         for i = 1 to 1_000 do
           Qsketch.add_scaled s ((i * 31) mod 977) ms
         done));
  let x = 3.5 in
  check Alcotest.int "add allocates nothing" 0
    (minor_words (fun () ->
         for _ = 1 to 1_000 do
           Qsketch.add s x
         done))

let test_qsketch_merge_exact_counts () =
  let a = sketch_of (Array.init 500 (fun i -> float_of_int i)) in
  let b = sketch_of (Array.init 300 (fun i -> float_of_int (1000 + i))) in
  let m = Qsketch.merge a b in
  check Alcotest.int "count sums" 800 (Qsketch.count m);
  check (Alcotest.float 1e-9) "min carries" 0. (Qsketch.min m);
  check (Alcotest.float 1e-9) "max carries" 1299. (Qsketch.max m);
  (* Inputs untouched. *)
  check Alcotest.int "left input intact" 500 (Qsketch.count a);
  check Alcotest.int "right input intact" 300 (Qsketch.count b)

let () =
  Alcotest.run "ba_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy" `Quick test_rng_copy;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int range" `Quick test_rng_int_range;
          Alcotest.test_case "int covers all" `Quick test_rng_int_covers_all;
          Alcotest.test_case "int_in range" `Quick test_rng_int_in;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
          Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
          Alcotest.test_case "bernoulli rate" `Slow test_rng_bernoulli_rate;
          Alcotest.test_case "exponential mean" `Slow test_rng_exponential_mean;
          Alcotest.test_case "geometric" `Slow test_rng_geometric;
          Alcotest.test_case "shuffle permutation" `Quick test_rng_shuffle_permutation;
          qcheck prop_rng_symbols_match_reference;
          Alcotest.test_case "symbols edges" `Quick test_rng_symbols_edges;
        ] );
      ( "modseq",
        [
          Alcotest.test_case "wrap" `Quick test_modseq_wrap;
          Alcotest.test_case "succ/add/sub" `Quick test_modseq_succ_add_sub;
          Alcotest.test_case "distance" `Quick test_modseq_distance;
          Alcotest.test_case "in_window" `Quick test_modseq_in_window;
          Alcotest.test_case "reconstruct examples" `Quick test_modseq_reconstruct_examples;
          qcheck prop_modseq_reconstruct;
          qcheck prop_modseq_reconstruct_outside;
          qcheck prop_modseq_distance_inverse;
        ] );
      ( "ring_buffer",
        [
          Alcotest.test_case "set/get" `Quick test_ring_set_get;
          Alcotest.test_case "wraparound" `Quick test_ring_wraparound;
          Alcotest.test_case "collision" `Quick test_ring_collision;
          Alcotest.test_case "overwrite same index" `Quick test_ring_overwrite_same_index;
          Alcotest.test_case "remove and iter" `Quick test_ring_remove_and_iter;
          Alcotest.test_case "clear" `Quick test_ring_clear;
          Alcotest.test_case "invalid capacity" `Quick test_ring_invalid_capacity;
          qcheck prop_ring_matches_model;
          Alcotest.test_case "set/find/remove allocate nothing" `Quick test_ring_allocates_nothing;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/var" `Quick test_stats_mean_var;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "summary" `Quick test_stats_summary;
          Alcotest.test_case "ci95" `Quick test_stats_ci95;
          Alcotest.test_case "add into a sized column allocates nothing" `Quick
            test_stats_add_allocates_nothing;
          Alcotest.test_case "column sized 0 accepts adds" `Quick test_stats_sized_zero;
          Alcotest.test_case "summary allocates nothing after warm-up" `Quick
            test_stats_summary_allocates_nothing;
          qcheck stats_select_equals_sort;
          Alcotest.test_case "a full column's to_array is the column" `Quick
            test_stats_full_column_handed_over;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "binning" `Quick test_histogram_binning;
          Alcotest.test_case "ranges" `Quick test_histogram_ranges;
          Alcotest.test_case "render" `Quick test_histogram_render;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "pads missing" `Quick test_table_pads_missing;
          Alcotest.test_case "fmt_float" `Quick test_table_fmt_float;
        ] );
      ( "counters",
        [
          Alcotest.test_case "names are distinct and non-empty, slots in order" `Quick
            test_counters_names;
          Alcotest.test_case "get and add" `Quick test_counters_get_add;
          qcheck prop_counters_merge_is_a_sum;
        ] );
      ( "qsketch",
        [
          Alcotest.test_case "uniform stream" `Quick test_qsketch_uniform;
          Alcotest.test_case "heavy-tailed stream" `Quick test_qsketch_heavy_tail;
          Alcotest.test_case "sorted adversarial" `Quick test_qsketch_sorted_adversarial;
          Alcotest.test_case "exact below capacity" `Quick test_qsketch_exact_when_small;
          Alcotest.test_case "flat memory" `Quick test_qsketch_flat_memory;
          Alcotest.test_case "deterministic" `Quick test_qsketch_deterministic;
          Alcotest.test_case "validation" `Quick test_qsketch_validation;
          Alcotest.test_case "merge exact counts" `Quick test_qsketch_merge_exact_counts;
          Alcotest.test_case
            "the int sketch entry allocates nothing and equals add (float_of_int x)" `Quick
            test_qsketch_int_entry;
          qcheck prop_qsketch_merge_associative;
        ] );
    ]
