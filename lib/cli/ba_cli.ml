(* Shared command-line conventions for the binaries: the version, the
   --jobs flag, the protocol, address and fault-plan converters, and
   the parameter checks that turn a rejected value into exit status 2.

   Every grid the tools run (chaos seed x fault cells, scaling sweeps) is
   a list of independent simulations, so each binary exposes the same
   --jobs flag and farms cells to a Ba_parallel.Pool. Results are
   collected in input order, which keeps output byte-identical at any
   job count. *)

open Cmdliner

(* The one version constant every binary reports: `ba_sim --version`,
   `ba_net --version` etc. all print this string via Cmd.info. *)
let version = "0.5.0"

let jobs_conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "jobs must be a positive integer (got %S)" s))
  in
  Arg.conv ~docv:"JOBS" (parse, Format.pp_print_int)

(* The --jobs flag, documented as farming out [what]. *)
let jobs_for what =
  let env = Cmd.Env.info "BA_JOBS" ~doc:"Default worker-domain count for $(b,--jobs)." in
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "jobs" ] ~env ~docv:"JOBS"
        ~doc:
          ("Worker domains for " ^ what
         ^ " (default: the machine's recommended domain count, override with \
            $(b,BA_JOBS)). Results are collected in submission order, so output is \
            byte-identical at any value."))

let jobs = jobs_for "independent simulation cells"

(* Explicit --jobs (and BA_JOBS, which cmdliner feeds through the same
   option) gets the same absurdity clamp as the pool default: requesting
   100000 domains on a 4-core host is a mistake, not a plan. *)
let resolve_jobs = function
  | Some n -> min n (Ba_parallel.Pool.max_jobs ())
  | None -> Ba_parallel.Pool.default_jobs ()

(* HOST:PORT, by literal address or by name lookup. *)
let addr_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg "address must be HOST:PORT")
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p >= 0 && p < 65536 -> (
            match Unix.inet_addr_of_string host with
            | ip -> Ok (Unix.ADDR_INET (ip, p))
            | exception Failure _ -> (
                match Unix.gethostbyname host with
                | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
                    Error (`Msg (Printf.sprintf "cannot resolve host %S" host))
                | { Unix.h_addr_list; _ } -> Ok (Unix.ADDR_INET (h_addr_list.(0), p))))
        | Some _ | None -> Error (`Msg (Printf.sprintf "bad port %S" port)))
  in
  let print ppf = function
    | Unix.ADDR_INET (ip, p) -> Format.fprintf ppf "%s:%d" (Unix.string_of_inet_addr ip) p
    | Unix.ADDR_UNIX p -> Format.pp_print_string ppf p
  in
  Arg.conv ~docv:"HOST:PORT" (parse, print)

let plan_conv =
  let parse s =
    match Ba_channel.Fault_plan.of_string s with Ok p -> Ok p | Error e -> Error (`Msg e)
  in
  Arg.conv ~docv:"PLAN" (parse, (fun ppf p ->
      Format.pp_print_string ppf (Ba_channel.Fault_plan.to_string p)))

(* Name resolution lives in the shared registry, so every binary accepts
   the same spellings and prints the same unknown-name error. *)
let protocol_conv =
  let parse s =
    match Ba_registry.Registry.parse s with Ok e -> Ok e | Error msg -> Error (`Msg msg)
  in
  Arg.conv ~docv:"PROTOCOL"
    (parse, fun ppf e -> Format.pp_print_string ppf e.Ba_registry.Registry.name)

(* ---- parameter checks ---- *)

(* Every binary checks its parameters before it starts any work.
   [validate ~tool f] is [f ()]; when [f] rejects a parameter with
   [Invalid_argument] (a library validator, or [reject]) the binary
   prints "<tool>: <reason>" on stderr and exits [exit_invalid]. [f]
   only builds and checks configuration; it may return the run as a
   closure, which then runs outside the handler, so a failure inside a
   run still surfaces as the bug it is. *)
let exit_invalid = 2

let validate ~tool f =
  match f () with
  | v -> v
  | exception Invalid_argument reason ->
      Printf.eprintf "%s: %s\n%!" tool reason;
      exit exit_invalid

let reject fmt = Printf.ksprintf invalid_arg fmt

let probability name p =
  if not (p >= 0. && p <= 1.) then reject "%s must be in [0,1] (got %g)" name p

let non_negative name v = if v < 0 then reject "%s must be >= 0 (got %d)" name v
let positive name v = if v <= 0 then reject "%s must be positive (got %d)" name v

let within name ~lo ~hi v =
  if v < lo || v > hi then reject "%s must be in [%d,%d] (got %d)" name lo hi v

(* The protocol accepts [config], its own constraints (the block-ack
   modulus of at least 2w) included. *)
let accepts protocol config =
  let (module P : Ba_proto.Protocol.S) = protocol in
  P.validate config
