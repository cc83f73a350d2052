(* ba_sim: run one simulated transfer and report the metrics.

   Examples:
     ba_sim --protocol blockack-multi --messages 5000 --loss 0.05
     ba_sim --protocol go-back-n --jitter 50 --loss 0.01 --window 8
     ba_sim --protocol stenning --modulus 16 --window 8 --gap 600
     ba_sim --tables full    (every experiment table; see EXPERIMENTS.md) *)

open Cmdliner
module Registry = Ba_registry.Registry

(* Print every experiment table, in [quick] (CI-sized: exactly what
   test/golden_tables.expected pins) or full mode, and exit. *)
let print_tables jobs mode =
  let quick =
    Ba_cli.validate ~tool:"ba_sim" (fun () ->
        match mode with
        | "quick" -> true
        | "full" -> false
        | m -> Ba_cli.reject "--tables must be quick or full (got %S)" m)
  in
  Ba_experiments.Experiments.run_all ~jobs:(Ba_cli.resolve_jobs jobs) ~quick ();
  exit 0

let run list_protocols tables jobs entry messages payload_size loss ack_loss_opt base_delay
    jitter window rto modulus coalesce gap seed seeds histogram =
  if list_protocols then begin
    Format.printf "%a" Registry.pp_list ();
    exit 0
  end;
  Option.iter (print_tables jobs) tables;
  let ack_loss = Option.value ~default:loss ack_loss_opt in
  let delay =
    if jitter = 0 then Ba_channel.Dist.Constant base_delay
    else Ba_channel.Dist.Uniform (base_delay, base_delay + jitter)
  in
  let max_transit = base_delay + jitter in
  let rto =
    match rto with
    | Some r -> r
    | None -> (2 * max_transit) + coalesce + 100
  in
  let proto = entry.Registry.protocol in
  let config =
    Ba_cli.validate ~tool:"ba_sim" (fun () ->
        Ba_cli.probability "--loss" loss;
        Ba_cli.probability "--ack-loss" ack_loss;
        Ba_cli.non_negative "--delay" base_delay;
        Ba_cli.non_negative "--jitter" jitter;
        Ba_cli.non_negative "--messages" messages;
        Ba_cli.non_negative "--payload-size" payload_size;
        let config =
          Ba_proto.Proto_config.make ~window ~rto ~wire_modulus:modulus ~ack_coalesce:coalesce
            ~stenning_gap:gap ~max_transit ()
        in
        Ba_cli.accepts proto config;
        config)
  in
  let seed_list = if seeds <= 1 then [ seed ] else List.init seeds (fun i -> seed + i) in
  let all_ok = ref true in
  List.iter
    (fun seed ->
      let r =
        Ba_proto.Harness.run proto ~seed ~messages ~payload_size ~config ~data_loss:loss
          ~ack_loss ~data_delay:delay ~ack_delay:delay ()
      in
      if not (Ba_proto.Harness.correct r) then all_ok := false;
      Format.printf "seed %d: %a@." seed Ba_proto.Harness.pp_result r;
      (match r.Ba_proto.Harness.latency with
      | Some l ->
          Format.printf "  latency: %a@." Ba_util.Stats.pp_summary l;
          if histogram then begin
            let h =
              Ba_util.Histogram.create ~lo:0. ~hi:(l.Ba_util.Stats.max +. 1.) ~bins:12
            in
            Array.iter (Ba_util.Histogram.add h) r.Ba_proto.Harness.latencies;
            print_string (Ba_util.Histogram.render ~width:40 h)
          end
      | None -> ()))
    seed_list;
  if !all_ok then 0 else 1

let protocol =
  let doc =
    "Protocol to simulate: " ^ String.concat ", " Registry.names
    ^ " (see $(b,--list-protocols))."
  in
  let default =
    match Registry.find "blockack-multi" with
    | Some e -> e
    | None -> assert false
  in
  Arg.(value & opt Ba_cli.protocol_conv default & info [ "p"; "protocol" ] ~doc)

let list_protocols =
  Arg.(value & flag
       & info [ "list-protocols" ]
           ~doc:"List every protocol in the shared registry (with aliases) and exit.")

let tables =
  Arg.(value & opt (some string) None
       & info [ "tables" ] ~docv:"MODE"
           ~doc:
             "Print every experiment table and exit. $(docv) is $(b,quick) (CI-sized, as \
              the golden tables pin them) or $(b,full) (as EXPERIMENTS.md records them).")

let jobs = Ba_cli.jobs_for "the experiment cells of $(b,--tables), the only mode that reads it"

let messages =
  Arg.(value & opt int 1000 & info [ "m"; "messages" ] ~doc:"Messages to transfer.")

let payload_size = Arg.(value & opt int 32 & info [ "payload-size" ] ~doc:"Payload bytes.")

let loss =
  Arg.(value & opt float 0.0 & info [ "l"; "loss" ] ~doc:"Loss probability on both links.")

let ack_loss =
  Arg.(value & opt (some float) None & info [ "ack-loss" ] ~doc:"Override ack-link loss.")

let base_delay = Arg.(value & opt int 50 & info [ "delay" ] ~doc:"Minimum one-way delay (ticks).")

let jitter =
  Arg.(value & opt int 0 & info [ "j"; "jitter" ] ~doc:"Extra uniform delay (0 = FIFO order).")

let window = Arg.(value & opt int 16 & info [ "w"; "window" ] ~doc:"Window size.")

let rto =
  Arg.(value & opt (some int) None
       & info [ "rto" ] ~doc:"Retransmission timeout; default 2*max_delay + coalesce + 100.")

let modulus =
  Arg.(value & opt (some int) None
       & info [ "n"; "modulus" ] ~doc:"Wire sequence-number modulus (default: unbounded).")

let coalesce =
  Arg.(value & opt int 0 & info [ "coalesce" ] ~doc:"Receiver ack-coalescing delay (ticks).")

let gap =
  Arg.(value & opt int 0
       & info [ "gap" ] ~doc:"Stenning slot-reuse quarantine (stenning protocol only).")

let seed = Arg.(value & opt int 42 & info [ "s"; "seed" ] ~doc:"Base random seed.")

let seeds = Arg.(value & opt int 1 & info [ "seeds" ] ~doc:"Run this many consecutive seeds.")

let histogram =
  Arg.(value & flag & info [ "histogram" ] ~doc:"Render a delivery-latency histogram per run.")

let cmd =
  let doc = "simulate a window-protocol transfer over lossy, reordering links" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Runs the block-acknowledgment protocol (Brown, Gouda & Miller, 1989) or one of \
         its baselines through the discrete-event harness and prints delivery, \
         retransmission and acknowledgment statistics. Exit status 1 if any run was \
         incorrect (lost, duplicated or misordered deliveries) — useful for \
         demonstrating that bounded go-back-N is unsafe under reorder.";
    ]
  in
  Cmd.v
    (Cmd.info "ba_sim" ~doc ~man ~version:Ba_cli.version)
    Term.(
      const run $ list_protocols $ tables $ jobs $ protocol $ messages $ payload_size
      $ loss $ ack_loss $ base_delay $ jitter $ window $ rto $ modulus $ coalesce $ gap $ seed
      $ seeds $ histogram)

let () = exit (Cmd.eval' cmd)
