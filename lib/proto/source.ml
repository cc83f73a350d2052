(* The outbox is a flat array indexed by position, doubled as it fills:
   positions are dense from 0, so a table would only add a bucket per
   message and a 64-slot start to every two-message flow. *)
type t = {
  supplier : unit -> string option;
  mutable history : string array;
  mutable issued : int;
  mutable cursor : int;
  mutable pending : string option;
}

let create supplier = { supplier; history = Array.make 4 ""; issued = 0; cursor = 0; pending = None }

let next t =
  if t.cursor < t.issued then begin
    (* Replaying the outbox after a resync rewind. *)
    let p = t.history.(t.cursor) in
    t.cursor <- t.cursor + 1;
    Some p
  end
  else begin
    let fresh =
      match t.pending with
      | Some _ as p ->
          t.pending <- None;
          p
      | None -> t.supplier ()
    in
    match fresh with
    | None -> None
    | Some p ->
        if t.issued = Array.length t.history then begin
          let grown = Array.make (2 * t.issued) "" in
          Array.blit t.history 0 grown 0 t.issued;
          t.history <- grown
        end;
        t.history.(t.issued) <- p;
        t.issued <- t.issued + 1;
        t.cursor <- t.issued;
        Some p
  end

let exhausted t =
  if t.cursor < t.issued then false
  else
    match t.pending with
    | Some _ -> false
    | None -> (
        match t.supplier () with
        | None -> true
        | Some p ->
            t.pending <- Some p;
            false)

let issued t = t.issued

let rewind t ~to_ =
  if to_ < 0 || to_ > t.issued then
    invalid_arg
      (Printf.sprintf "Source.rewind: position %d outside issued range [0,%d]" to_ t.issued);
  t.cursor <- to_
