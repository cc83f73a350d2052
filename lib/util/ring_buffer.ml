type 'a slot = Empty | Full of int * 'a

type 'a t = { slots : 'a slot array; mutable live : int }

let create capacity =
  if capacity <= 0 then invalid_arg "Ring_buffer.create: capacity must be positive";
  { slots = Array.make capacity Empty; live = 0 }

let slot_of t i = i mod Array.length t.slots

let set t i v =
  let s = slot_of t i in
  (match t.slots.(s) with
  | Full (j, _) when j <> i ->
      invalid_arg
        (Printf.sprintf "Ring_buffer.set: slot collision (index %d vs live %d, capacity %d)" i j
           (Array.length t.slots))
  | Full _ -> ()
  | Empty -> t.live <- t.live + 1);
  t.slots.(s) <- Full (i, v)

let get t i =
  match t.slots.(slot_of t i) with Full (j, v) when j = i -> Some v | Full _ | Empty -> None

let mem t i = match get t i with Some _ -> true | None -> false

let remove t i =
  let s = slot_of t i in
  match t.slots.(s) with
  | Full (j, _) when j = i ->
      t.slots.(s) <- Empty;
      t.live <- t.live - 1
  | Full _ | Empty -> ()

let occupancy t = t.live

let iter f t =
  Array.iter (function Empty -> () | Full (i, v) -> f i v) t.slots

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) Empty;
  t.live <- 0
