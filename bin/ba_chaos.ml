(* ba_chaos: adversarial campaign runner.

   Sweeps seeds x fault classes (bursty loss, duplication, corruption,
   outages, reordering, endpoint crash-restart, memory overload, and
   the composed storm) through the experiment
   harness and checks that the robust protocols — block acknowledgment
   and selective repeat, both with the paper's 2w wire modulus — stay
   safe (no duplicate, misordered or corrupted delivery) and recover
   (complete once faults quiesce). Then, unless --no-demo, demonstrates
   that textbook bounded go-back-N (modulus w+1) does NOT survive the
   reorder adversary.

   Examples:
     ba_chaos                        # 50 seeds, all classes, both checks
     ba_chaos --seeds 10 --messages 40 --classes corruption,outage
     ba_chaos --protocol blockack --no-demo
     ba_chaos --replay "seed=7 fault=crash"   # re-run one failing cell *)

open Cmdliner
module Chaos = Ba_verify.Chaos
module Registry = Ba_registry.Registry

(* The audited set comes from the shared registry: entries flagged
   robust are exactly the protocols the campaign promises stay clean. *)
let robust_protocols = List.map (fun e -> (e.Registry.name, e)) Registry.robust

let parse_classes names =
  List.map
    (fun name ->
      match Chaos.class_of_name name with
      | Some c -> c
      | None ->
          Format.eprintf "ba_chaos: unknown fault class %S@." name;
          exit 2)
    names

(* --replay "seed=N fault=CLASS": re-run one campaign cell from the key
   printed in a failure report. The fault schedule is a pure function of
   (seed, class), so this reproduces the exact run — plans and all. *)
let replay key messages protocol_filter =
  let seed, fault_name =
    try Scanf.sscanf key " seed=%d fault=%s%!" (fun s f -> (s, f))
    with Scanf.Scan_failure _ | Failure _ | End_of_file ->
      Format.eprintf "ba_chaos: --replay expects \"seed=N fault=CLASS\", got %S@." key;
      exit 2
  in
  let fault =
    match Chaos.class_of_name fault_name with
    | Some f -> f
    | None ->
        Format.eprintf "ba_chaos: unknown fault class %S@." fault_name;
        exit 2
  in
  let entry =
    match protocol_filter with
    | None -> (
        match Registry.find "blockack" with Some e -> e | None -> assert false)
    | Some name -> (
        match Registry.parse name with
        | Ok e -> e
        | Error msg ->
            Format.eprintf "ba_chaos: %s@." msg;
            exit 2)
  in
  if not (Chaos.runnable entry.Registry.protocol (Chaos.incident fault ~seed)) then begin
    Format.eprintf "ba_chaos: %s does not implement the crash-restart lifecycle@."
      entry.Registry.name;
    exit 2
  end;
  let config = if entry.Registry.robust then Chaos.robust_config else Chaos.gbn_config in
  match Chaos.run_one ~messages ~config entry.Registry.protocol fault ~seed with
  | Some f ->
      Format.printf "@[<v>replayed failure:@,%a@]@." Chaos.pp_failure f;
      1
  | None ->
      Format.printf "replay: seed=%d fault=%s protocol=%s — clean@." seed
        (Chaos.class_name fault) entry.Registry.name;
      0

let run seeds messages class_names protocol_filter no_demo jobs replay_key =
  match replay_key with
  | Some key -> replay key messages protocol_filter
  | None ->
  let jobs = Ba_cli.resolve_jobs jobs in
  let seeds = List.init seeds (fun i -> i + 1) in
  let classes =
    match class_names with [] -> Chaos.all_classes | names -> parse_classes names
  in
  let audited =
    match protocol_filter with
    | None -> robust_protocols
    | Some name -> (
        match Registry.parse name with
        | Error msg ->
            Format.eprintf "ba_chaos: %s@." msg;
            exit 2
        | Ok e when not e.Registry.robust ->
            Format.eprintf
              "ba_chaos: %S is not in the audited robust set (expected one of: %s)@."
              name
              (String.concat ", " (List.map fst robust_protocols));
            exit 2
        | Ok e -> [ (e.Registry.name, e) ])
  in
  let reports =
    List.map
      (fun (_, e) -> Chaos.run_campaign ~messages ~seeds ~classes ~jobs e.Registry.protocol)
      audited
  in
  List.iter (fun r -> Format.printf "%a@.@." Chaos.pp_report r) reports;
  let robust_ok = List.for_all Chaos.clean reports in
  if not robust_ok then Format.printf "FAIL: a robust protocol violated safety or recovery@.";
  let demo_ok =
    if no_demo then true
    else begin
      (* The negative control: bounded go-back-N's w+1 modulus cannot
         tell a stale acknowledgment from a fresh one once copies
         overtake each other, so the reorder adversary must break it.
         A clean sweep here would mean the campaign lost its teeth. *)
      let r =
        Chaos.run_campaign ~messages ~config:Chaos.gbn_config ~seeds ~classes:[ Chaos.Reorder ]
          ~jobs Ba_baselines.Go_back_n.protocol
      in
      let broken = not (Chaos.clean r) in
      if broken then begin
        Format.printf "demonstrated: bounded go-back-N misbehaves under reorder@.";
        List.iter
          (fun (c : Chaos.class_report) ->
            match c.Chaos.first_failure with
            | Some f -> Format.printf "  @[<v>%a@]@." Chaos.pp_failure f
            | None -> ())
          r.Chaos.classes
      end
      else
        Format.printf
          "FAIL: expected bounded go-back-N to misbehave under reorder, but it survived@.";
      broken
    end
  in
  if robust_ok && demo_ok then 0 else 1

let seeds =
  Arg.(value & opt int 50 & info [ "seeds" ] ~doc:"Number of seeds to sweep (1..N).")

let messages =
  Arg.(value & opt int 60 & info [ "messages" ] ~doc:"Payloads per run.")

let classes =
  let doc =
    "Comma-separated fault classes to run (default: all of bursty-loss, duplication, \
     corruption, outage, reorder, crash, overload, storm)."
  in
  Arg.(value & opt (list string) [] & info [ "classes" ] ~doc)

let replay_key =
  let doc =
    "Re-run one campaign cell from a failure's replay key, e.g. \
     $(b,--replay) \"seed=7 fault=crash\". The fault schedule is derived from the seed, so \
     the run is reproduced exactly; combine with $(b,--protocol) to pick the protocol \
     (default blockack). Exit status 1 when the replayed run fails again."
  in
  Arg.(value & opt (some string) None & info [ "replay" ] ~doc)

let protocol =
  Arg.(value & opt (some string) None
       & info [ "protocol" ]
           ~doc:"Audit only this robust protocol (a registry name or alias, e.g. blockack, \
                 selective-repeat).")

let no_demo =
  Arg.(value & flag
       & info [ "no-demo" ] ~doc:"Skip the bounded go-back-N reorder demonstration.")

let cmd =
  let doc = "chaos-test window protocols against adversarial channel faults" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs every (seed, fault class) pair through the experiment harness and checks \
         safety (no duplicate, misordered or corrupted delivery — ever) and recovery \
         (the transfer completes once scheduled faults quiesce). Fault schedules are a \
         pure function of the seed; any failure is printed with its seed and fault plans \
         so the run can be replayed. Cells are independent, so $(b,--jobs) farms them to \
         worker domains; reports are assembled in seed order either way, making the output \
         byte-identical at any job count. Exit status 1 when a robust protocol fails, or \
         when the go-back-N negative control unexpectedly survives.";
    ]
  in
  Cmd.v
    (Cmd.info "ba_chaos" ~doc ~man ~version:Ba_cli.version)
    Term.(const run $ seeds $ messages $ classes $ protocol $ no_demo $ Ba_cli.jobs $ replay_key)

let () = exit (Cmd.eval' cmd)
