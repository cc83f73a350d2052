type endpoint = Sender_end | Receiver_end

type event = { at : int; endpoint : endpoint; down_for : int }

type t = event list

let none = []

let validate t =
  List.iter
    (fun e ->
      if e.at < 0 then invalid_arg "Crash_plan: crash tick must be >= 0";
      if e.down_for <= 0 then invalid_arg "Crash_plan: down_for must be positive")
    t

let make events =
  validate events;
  List.sort (fun a b -> compare (a.at, a.endpoint) (b.at, b.endpoint)) events

let endpoint_letter = function Sender_end -> 'S' | Receiver_end -> 'R'

(* Replay key, printed next to the channel fault plans on a campaign
   failure: crash(S@150+80) = sender crashes at tick 150, restarts at
   230. Multiple events join with "+" like Fault_plan's pp. *)
let pp ppf = function
  | [] -> Format.pp_print_string ppf "none"
  | events ->
      Format.pp_print_string ppf
        (String.concat "+"
           (List.map
              (fun e ->
                Printf.sprintf "crash(%c@%d+%d)" (endpoint_letter e.endpoint) e.at e.down_for)
              events))

let to_string t = Format.asprintf "%a" pp t

let of_string s =
  (* Tokens join with '+' at paren depth 0; the '+' inside
     crash(S@150+80) stays with its token. *)
  let toks = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' ->
          incr depth;
          Buffer.add_char buf c
      | ')' ->
          decr depth;
          Buffer.add_char buf c
      | '+' when !depth = 0 ->
          toks := Buffer.contents buf :: !toks;
          Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  toks := Buffer.contents buf :: !toks;
  let parse_tok tok =
    match
      Scanf.sscanf tok "crash(%c@%d+%d)%!" (fun c at down_for ->
          match c with
          | 'S' -> Some { at; endpoint = Sender_end; down_for }
          | 'R' -> Some { at; endpoint = Receiver_end; down_for }
          | _ -> None)
    with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "unknown endpoint letter in crash token %S" tok)
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) ->
        Error (Printf.sprintf "unrecognized crash token %S in plan %S" tok s)
  in
  if String.trim s = "none" then Ok none
  else
    let rec go acc = function
      | [] -> (
          match validate acc with
          | () -> Ok (make acc)
          | exception Invalid_argument m -> Error m)
      | tok :: rest -> (
          match parse_tok (String.trim tok) with
          | Ok e -> go (e :: acc) rest
          | Error _ as e -> e)
    in
    go [] (List.rev !toks)
