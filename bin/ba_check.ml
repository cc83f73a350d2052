(* ba_check: explore a protocol spec exhaustively and report on the
   paper's invariants (assertions 6-8), deadlock freedom and progress.

   Examples:
     ba_check --spec section2 -w 2 --limit 4
     ba_check --spec section5 -w 2 -n 3 --limit 6     # finds the n<2w bug
     ba_check --spec gbn -w 2 -n 3 --limit 6          # finds the intro scenario
     ba_check --spec crash-naive -w 1 --limit 2       # finds duplicate delivery
     ba_check --spec crash-epochs -w 1 --limit 2      # proves the handshake safe
     ba_check --spec pressure -w 2 --limit 3          # proves buffer drops ≡ loss
     ba_check --spec pressure-naive -w 2 --limit 2    # finds the ack-before-buffer bug *)

open Cmdliner

let specs =
  [
    ("section2", `S2);
    ("section4", `S4);
    ("section5", `S5);
    ("gbn", `Gbn);
    ("crash-naive", `Crash_naive);
    ("crash-epochs", `Crash_epochs);
    ("pressure", `Pressure);
    ("pressure-naive", `Pressure_naive);
  ]

let victims = [ ("sender", `Sender); ("receiver", `Receiver); ("both", `Both) ]

(* Exit statuses beyond cmdliner's own. *)
let exit_violation = 1
let exit_capped = 3

let run spec w n limit max_states no_liveness crashes victims =
  let section2 = { Ba_model.Ba_kernel.w; lead = None; n = None; limit; timer = Whole_channel } in
  let spec_module =
    Ba_cli.validate ~tool:"ba_check" @@ fun () ->
    match spec with
    | `S2 -> Ba_model.Ba_kernel.spec section2
    | `S4 -> Ba_model.Ba_kernel.spec { section2 with timer = Per_message }
    | `S5 -> Ba_model.Ba_kernel.spec { section2 with n = Some (Option.value n ~default:(2 * w)) }
    | `Gbn -> Ba_model.Gbn_bounded_spec.default ~w ?n ~limit ()
    | `Crash_naive ->
        Ba_model.Ba_spec_crash.default ~w ?n ~limit ~epochs:false ~max_crashes:crashes ~victims ()
    | `Crash_epochs ->
        Ba_model.Ba_spec_crash.default ~w ?n ~limit ~epochs:true ~max_crashes:crashes ~victims ()
    | `Pressure -> Ba_model.Ba_spec_pressure.default ~w ~limit ~naive:false
    | `Pressure_naive -> Ba_model.Ba_spec_pressure.default ~w ~limit ~naive:true
  in
  let result =
    Ba_verify.Explorer.run_spec ~max_states ~check_liveness:(not no_liveness) spec_module
  in
  Format.printf "%a@." Ba_verify.Explorer.pp_result result;
  if result.Ba_verify.Explorer.violation <> None then exit_violation
  else if result.Ba_verify.Explorer.capped then exit_capped
  else 0

let spec =
  let doc =
    "Which spec to check: section2 (block ack, simple timeout), section4 (per-message \
     timeouts), section5 (finite wire sequence numbers; see --modulus), gbn (bounded \
     go-back-N, the intro's strawman), crash-naive (endpoint crash-restart without \
     incarnation epochs: exhibits duplicate delivery), crash-epochs (crash-restart with \
     the epoch resync handshake: safe and live), pressure (receiver may drop any \
     out-of-order frame for buffer-full: safe and live — drops are channel losses), \
     pressure-naive (ack-before-buffer: violates assertion 8)."
  in
  Arg.(value & opt (enum specs) `S2 & info [ "spec" ] ~doc)

let w = Arg.(value & opt int 2 & info [ "w"; "window" ] ~doc:"Window size.")

let n =
  Arg.(value & opt (some int) None
       & info [ "n"; "modulus" ]
           ~doc:"Wire modulus (section5: default 2w; gbn: default w+1).")

let limit =
  Arg.(value & opt int 4 & info [ "limit" ] ~doc:"Messages in the bounded transfer.")

let max_states =
  Arg.(value & opt int 2_000_000 & info [ "max-states" ] ~doc:"Exploration cap.")

let no_liveness =
  Arg.(value & flag & info [ "no-liveness" ] ~doc:"Skip the loss-free progress check.")

let crashes =
  Arg.(
    value & opt int 1
    & info [ "crashes" ] ~doc:"Crash-restart budget for the crash-* specs (default 1).")

let victims_arg =
  Arg.(
    value
    & opt (enum victims) `Both
    & info [ "victims" ]
        ~doc:
          "Which endpoint the crash-* specs may crash: sender, receiver, or both. With \
           crash-naive, 'receiver' exhibits duplicate delivery and 'sender' phantom \
           delivery.")

let cmd =
  let doc = "model-check the block-acknowledgment protocol specs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Breadth-first exploration of the paper's guarded-action programs. Verifies the \
         system invariant (assertions 6-8) at every reachable state, reports deadlocks, \
         and checks that every state can still complete the transfer using protocol \
         actions only (progress during loss-free periods, Section III-C). Prints the \
         shortest counterexample when an invariant fails. The crash-* specs add an \
         environment that crash-restarts endpoints, wiping volatile state: crash-naive \
         asserts at-most-once delivery and fails; crash-epochs carries incarnation \
         epochs plus the REQ/POS/FIN resync handshake and passes, with assertions 6-8 \
         re-established in every stabilized state.";
    ]
  in
  let exits =
    Cmd.Exit.info exit_violation ~doc:"when an invariant fails; the counterexample is printed."
    :: Cmd.Exit.info Ba_cli.exit_invalid ~doc:"when the spec rejects its parameters (e.g. $(b,-n) 0)."
    :: Cmd.Exit.info exit_capped
         ~doc:
           "when $(b,--max-states) cut the exploration short without finding a violation: \
            the explored states are clean, but nothing is proven."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "ba_check" ~doc ~man ~exits ~version:Ba_cli.version)
    Term.(const run $ spec $ w $ n $ limit $ max_states $ no_liveness $ crashes $ victims_arg)

let () = exit (Cmd.eval' cmd)
