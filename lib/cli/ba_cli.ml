(* Shared command-line conventions for the binaries: the version, the
   --jobs flag, and the protocol, address and fault-plan converters.

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

let jobs =
  let env = Cmd.Env.info "BA_JOBS" ~doc:"Default worker-domain count for $(b,--jobs)." in
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "jobs" ] ~env ~docv:"JOBS"
        ~doc:
          "Worker domains for independent simulation cells (default: the machine's \
           recommended domain count, override with $(b,BA_JOBS)). Results are collected \
           in submission order, so output is byte-identical at any value.")

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
