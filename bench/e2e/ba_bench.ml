(* End-to-end benchmark of the block-acknowledgement transfer stack.

   One workload, as BENCHMARK.json's command runs it:
     ba_bench.exe --workload NAME --seed S --seconds T --trace 0|1
   prints human-readable lines, then one JSON result line.

   All workloads, each in its own child process, rotated over rounds:
     ba_bench.exe --seed S --json OUT [--rounds R] [--trace SPANS]

   Two saved reports judged against BENCHMARK.json's bounds:
     ba_bench.exe --compare PARENT.json CHANGE.json

   The runtest smoke check:
     ba_bench.exe --smoke --benchmark ../../BENCHMARK.json *)

module W = Workloads
module M = Measure
module J = Jsonv

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("ba_bench: " ^ s); exit 2) fmt

let workload name =
  match W.find name with
  | Some w -> w
  | None ->
      die "unknown workload %S (expected one of: %s)" name
        (String.concat ", " (List.map (fun w -> w.W.name) W.all))

type child_result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

let child_run args =
  match M.run_child args with
  | Error e -> die "%s" e
  | Ok out -> (
      try
        let j = J.parse (M.last_line out) in
        {
          correct = J.member_exn "correct" j = J.Bool true;
          attempted = int_of_float (J.to_num (J.member_exn "attempted" j));
          failed = int_of_float (J.to_num (J.member_exn "failed" j));
          metrics =
            List.map
              (fun (k, v) -> (k, J.to_num (J.member_exn "value" v)))
              (J.to_assoc (J.member_exn "metrics" j));
        }
      with J.Parse_error e -> die "unreadable result from %s: %s" (String.concat " " args) e)

let workload_args w ~seed ~ops ~trace =
  [ "--workload"; w.W.name; "--seed"; string_of_int seed ]
  @ [ "--ops"; string_of_int ops; "--trace"; trace ]

(* ---- all workloads, rotated over rounds -------------------------- *)

let all_mode ~seed ~rounds ~out ~spans =
  let results = Hashtbl.create 8 in
  let calib = ref [] in
  for r = 0 to rounds - 1 do
    calib := M.calib_ns () :: !calib;
    let k = r mod List.length W.all in
    let order = List.filteri (fun i _ -> i >= k) W.all @ List.filteri (fun i _ -> i < k) W.all in
    List.iter
      (fun w ->
        let c = child_run (workload_args w ~seed ~ops:w.W.ops ~trace:"0") in
        Printf.printf "round %d %-17s attempted %d failed %d\n%!" (r + 1) w.W.name c.attempted
          c.failed;
        let earlier = Option.value ~default:[] (Hashtbl.find_opt results w.W.name) in
        Hashtbl.replace results w.W.name (c :: earlier))
      order
  done;
  let layers =
    match spans with
    | None -> []
    | Some path ->
        Out_channel.with_open_text path (fun _ -> ());
        List.map
          (fun w ->
            let args = workload_args w ~seed ~ops:w.W.ops ~trace:"1" @ [ "--spans"; path ] in
            let c = child_run args in
            Printf.printf "traced  %-17s attempted %d failed %d\n%!" w.W.name c.attempted
              c.failed;
            (w.W.name, c))
          W.all
  in
  Printf.printf "\n%-17s %-22s %-7s %12s %12s %12s\n" "workload" "metric" "unit" "min" "median"
    "max";
  let failed_any = ref false in
  let report w =
    let rounds = List.rev (Hashtbl.find results w.W.name) in
    let runs = rounds @ Option.to_list (List.assoc_opt w.W.name layers) in
    let attempted = List.fold_left (fun a c -> a + c.attempted) 0 runs in
    let failed = List.fold_left (fun a c -> a + c.failed) 0 runs in
    if failed > 0 then failed_any := true;
    let error_rate = float_of_int failed /. float_of_int (max 1 attempted) in
    let metric (name, unit_) =
      let values = List.map (fun c -> List.assoc name c.metrics) rounds in
      let lo = M.percentile values 0. and mid = M.median values and hi = M.percentile values 1. in
      Printf.printf "%-17s %-22s %-7s %12.6g %12.6g %12.6g\n" w.W.name name unit_ lo mid hi;
      ( name,
        J.Obj
          [
            ("unit", J.Str unit_);
            ("values", J.Arr (List.map (fun v -> J.Num v) values));
            ("min", J.Num lo);
            ("median", J.Num mid);
            ("max", J.Num hi);
          ] )
    in
    let metrics = List.map metric M.end_to_end in
    Printf.printf "%-17s %-22s %-7s %12s %12.6g %12s\n" w.W.name "error_rate" "ratio" "" error_rate
      "";
    let per_layer =
      match List.assoc_opt w.W.name layers with
      | None -> []
      | Some c ->
          [
            ( "per_layer",
              J.Obj
                (List.map
                   (fun (name, unit_) ->
                     let v = J.Num (List.assoc name c.metrics) in
                     (name, J.Obj [ ("unit", J.Str unit_); ("value", v) ]))
                   M.per_layer) );
          ]
    in
    ( w.W.name,
      J.Obj
        ([
           ("attempted", J.Num (float_of_int attempted));
           ("failed", J.Num (float_of_int failed));
           ("error_rate", J.Num error_rate);
           ("metrics", J.Obj metrics);
         ]
        @ per_layer) )
  in
  let workloads = List.map report W.all in
  let doc =
    J.Obj
      [
        ("schema", J.Str "ba_bench/e2e/v1");
        ("seed", J.Num (float_of_int seed));
        ("rounds", J.Num (float_of_int rounds));
        ( "host",
          J.Obj
            [
              ("nproc", J.Num (float_of_int (Domain.recommended_domain_count ())));
              ("ocaml", J.Str Sys.ocaml_version);
              ("calib_ns", J.Arr (List.rev_map (fun v -> J.Num v) !calib));
            ] );
        ("workloads", J.Obj workloads);
      ]
  in
  Out_channel.with_open_text out (fun oc -> output_string oc (J.to_string doc ^ "\n"));
  Printf.printf "wrote %s\n" out;
  if !failed_any then exit 1

(* ---- comparison ---------------------------------------------------- *)

type verdict = Improved | Unchanged | Worse | Unresolved

let verdict_name = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [worse] is the relative change of the median in the bad direction.
   A spread wider than the bound leaves the pair unresolved unless every
   run of the change beats every run of the parent. Set-up time is one
   process start per probe and spreads widely, so only its median is
   judged. *)
let judge ~higher ~bound ~spread_checked a b =
  let better x y = if higher then x > y else x < y in
  let ma = M.median a and mb = M.median b in
  let worse = (if higher then ma -. mb else mb -. ma) /. Float.abs ma in
  let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) a) b in
  let v =
    if all_better then Improved
    else if spread_checked && Float.max (M.spread a) (M.spread b) > bound then Unresolved
    else if worse > bound then Worse
    else if -.worse > bound then Improved
    else Unchanged
  in
  (v, ma, mb, worse)

let compare_mode ~benchmark a b =
  let bench = J.of_file benchmark in
  let bounds =
    List.map
      (fun m ->
        ( J.to_str (J.member_exn "name" m),
          (J.to_str (J.member_exn "better" m) = "higher", J.to_num (J.member_exn "bound" m)) ))
      (J.to_list (J.member_exn "end_to_end" bench))
  in
  let ja = J.of_file a and jb = J.of_file b in
  let wa = J.to_assoc (J.member_exn "workloads" ja)
  and wb = J.to_assoc (J.member_exn "workloads" jb) in
  let bad = ref false in
  Printf.printf "%-17s %-22s %12s %12s %9s %8s  %s\n" "workload" "metric" "parent" "change" "worse%"
    "bound%" "verdict";
  List.iter
    (fun (wname, pa) ->
      match List.assoc_opt wname wb with
      | None ->
          bad := true;
          Printf.printf "%-17s missing from %s\n" wname b
      | Some pb ->
          let values p m =
            let metric = J.member_exn m (J.member_exn "metrics" p) in
            List.map J.to_num (J.to_list (J.member_exn "values" metric))
          in
          List.iter
            (fun (m, (higher, bound)) ->
              let v, ma, mb, worse =
                judge ~higher ~bound ~spread_checked:(m <> "setup_s") (values pa m) (values pb m)
              in
              if v = Worse || v = Unresolved then bad := true;
              Printf.printf "%-17s %-22s %12.6g %12.6g %+8.2f%% %7.1f%%  %s\n" wname m ma mb
                (100. *. worse) (100. *. bound) (verdict_name v))
            bounds;
          let er p = J.to_num (J.member_exn "error_rate" p) in
          let ea = er pa and eb = er pb in
          if eb > ea || eb > 0. then bad := true;
          Printf.printf "%-17s %-22s %12.6g %12.6g %9s %8s  %s\n" wname "error_rate" ea eb "" ""
            (if eb > ea then "worse" else if eb > 0. then "failing" else "ok"))
    wa;
  if !bad then exit 1

(* ---- smoke check --------------------------------------------------- *)

let valid_name s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let smoke ~benchmark =
  let bench = J.of_file benchmark in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let declared key =
    List.map
      (fun m -> (J.to_str (J.member_exn "name" m), J.to_str (J.member_exn "unit" m)))
      (J.to_list (J.member_exn key bench))
  in
  let same_set what declared emitted =
    List.iter
      (fun (n, u) ->
        if not (valid_name n) then problem "%s: invalid metric name %S" what n;
        match List.assoc_opt n emitted with
        | None -> problem "%s: declared metric %s is not emitted" what n
        | Some u' when u' <> u -> problem "%s: %s has unit %s, declared %s" what n u' u
        | Some _ -> ())
      declared;
    List.iter
      (fun (n, _) ->
        if not (List.mem_assoc n declared) then problem "%s: %s emitted but not declared" what n)
      emitted
  in
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  same_set "end_to_end" e2e M.end_to_end;
  same_set "per_layer" layers M.per_layer;
  let names =
    List.map
      (fun m -> J.to_str (J.member_exn "name" m))
      (J.to_list (J.member_exn "workloads" bench))
  in
  if names <> List.map (fun w -> w.W.name) W.all then
    problem "BENCHMARK.json workloads differ from the code's";
  List.iter
    (fun w ->
      let ops = min 3 w.W.ops in
      List.iter
        (fun (trace, decl) ->
          let c = child_run (workload_args w ~seed:1 ~ops ~trace @ [ "--setups"; "1" ]) in
          Printf.printf "smoke %-17s trace %s: attempted %d failed %d\n%!" w.W.name trace
            c.attempted c.failed;
          if c.failed > 0 || not c.correct then
            problem "%s: error_rate %d/%d" w.W.name c.failed c.attempted;
          let absent ~what from (n, _) =
            if not (List.mem_assoc n from) then problem "%s trace %s: %s %s" w.W.name trace n what
          in
          List.iter (absent ~what:"missing" c.metrics) decl;
          List.iter (absent ~what:"undeclared" decl) c.metrics)
        [ ("0", e2e); ("1", layers) ])
    W.all;
  let unsafe =
    List.length (List.filter (fun seed -> not (W.unsafe_control ~seed).W.ok) [ 1; 2; 3 ])
  in
  Printf.printf "smoke negative control (go-back-n, modulus 17): %d of 3 ops failed\n" unsafe;
  if unsafe = 0 then problem "negative control: the checks caught no failure";
  match List.rev !problems with
  | [] -> print_endline "smoke: ok"
  | ps ->
      List.iter (fun p -> print_endline ("smoke: " ^ p)) ps;
      exit 1

(* ---- command line -------------------------------------------------- *)

let () =
  let workload_name = ref None
  and seed = ref 1
  and seconds = ref None
  and ops = ref None
  and trace = ref None
  and spans = ref None
  and setups = ref 5
  and probe = ref false
  and json = ref None
  and rounds = ref 3
  and compare = ref None
  and benchmark = ref "BENCHMARK.json"
  and smoke_mode = ref false in
  let set r v = r := Some v in
  let cmp_a = ref "" in
  let specs =
    [
      ("--workload", Arg.String (set workload_name), "NAME run one workload");
      ("--seed", Arg.Set_int seed, "S base seed: op i runs seed S+i (default 1)");
      ("--seconds", Arg.Float (set seconds), "T measure for T seconds");
      ("--ops", Arg.Int (set ops), "N measure N ops (default: the workload's count)");
      ( "--trace",
        Arg.String (set trace),
        "0|1 with --workload: untraced (end-to-end) or traced (per-layer) run; FILE with \
         --json: add a traced pass writing spans to FILE" );
      ("--spans", Arg.String (set spans), "FILE append the traced run's raw spans to FILE");
      ("--setups", Arg.Set_int setups, "K set-up probes per run (default 5)");
      ("--setup-probe", Arg.Set probe, " run one warm-up op and report when it ended");
      ("--json", Arg.String (set json), "OUT run all workloads and write the report to OUT");
      ("--rounds", Arg.Set_int rounds, "R rounds in --json mode (default 3)");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string cmp_a; Arg.String (fun b -> compare := Some (!cmp_a, b)) ],
        "A B judge report B against report A" );
      ( "--benchmark",
        Arg.Set_string benchmark,
        "PATH BENCHMARK.json to read (default ./BENCHMARK.json)" );
      ( "--smoke",
        Arg.Set smoke_mode,
        " quick self-check of metrics, names and the negative control" );
      ("--shard-flows", Arg.Set_int W.shard_flows, "N flows per shard-100k op (default 100000)");
    ]
  in
  Arg.parse specs (fun a -> die "unexpected argument %S" a) "ba_bench.exe [options]";
  match (!smoke_mode, !compare, !json, !workload_name) with
  | true, _, _, _ ->
      W.shard_flows := 5_000;
      smoke ~benchmark:!benchmark
  | _, Some (a, b), _, _ -> compare_mode ~benchmark:!benchmark a b
  | _, _, Some out, _ -> all_mode ~seed:!seed ~rounds:(max 1 !rounds) ~out ~spans:!trace
  | _, _, _, Some name ->
      let w = workload name in
      if !probe then M.setup_probe w ~seed:!seed
      else
        let budget =
          match (!seconds, !ops) with
          | Some s, _ -> M.Seconds s
          | None, Some n -> M.Ops (max 1 n)
          | None, None -> M.Ops w.W.ops
        in
        let trace =
          match !trace with
          | None | Some "0" -> false
          | Some "1" -> true
          | Some t -> die "--trace takes 0 or 1 with --workload, not %S" t
        in
        let setups = max 1 !setups in
        let cfg = { M.workload = w; seed = !seed; budget; setups; spans = !spans } in
        M.run cfg ~trace
  | _ -> die "nothing to do: give --workload, --json, --compare or --smoke (see --help)"
