type t = int list
(* Strictly increasing. *)

let empty = []
let is_empty t = t = []

let rec mem x = function
  | [] -> false
  | y :: rest -> if x = y then true else if x < y then false else mem x rest

let rec add x = function
  | [] -> [ x ]
  | y :: rest as all -> if x = y then all else if x < y then x :: all else y :: add x rest

let rec remove x = function
  | [] -> []
  | y :: rest -> if x = y then rest else if x < y then y :: rest else y :: remove x rest

let cardinal = List.length
let elements t = t
let of_list xs = List.sort_uniq compare xs
let exists = List.exists
let max_elt t = match List.rev t with [] -> None | x :: _ -> Some x

let rec add_range ~lo ~hi t = if lo > hi then t else add_range ~lo:(lo + 1) ~hi (add lo t)

let pp ppf t =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int t))
