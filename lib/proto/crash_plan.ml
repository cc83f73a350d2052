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
