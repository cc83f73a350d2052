(* The outbox is a dense {!Ba_util.Ring_buffer} column over positions
   [base, issued), at [pos mod capacity]. It starts empty and doubles as
   it fills, like the senders' window columns: a two-message flow holds
   two slots, and a sender that releases its acknowledged prefix holds
   about a window. *)
type t = {
  supplier : unit -> string;
  mutable ring : string array;
  mutable base : int;
  mutable issued : int;
  mutable pending : string;  (* the lookahead payload, or [none] *)
}

(* An empty lookahead slot: a string no supplier can return, since it
   is compared physically. Built at run time, so it shares no literal;
   [""] would not do, as an application may send empty payloads. *)
let none = Bytes.to_string (Bytes.make 1 '\000')

let create supplier = { supplier; ring = [||]; base = 0; issued = 0; pending = none }

let push t p =
  if t.issued - t.base = Array.length t.ring then begin
    let cap =
      Ba_util.Ring_buffer.next_capacity (Array.length t.ring) ~need:(t.issued - t.base)
        ~limit:max_int
    in
    t.ring <- Ba_util.Ring_buffer.place t.ring ~cap ~fill:"" ~lo:t.base ~hi:t.issued
  end;
  t.ring.(t.issued mod Array.length t.ring) <- p;
  t.issued <- t.issued + 1

let next t =
  let p = t.pending in
  if p != none then begin
    t.pending <- none;
    push t p;
    true
  end
  else
    match t.supplier () with
    | p ->
        push t p;
        true
    | exception Protocol.Exhausted -> false

let exhausted t =
  t.pending == none
  &&
  match t.supplier () with
  | p ->
      t.pending <- p;
      false
  | exception Protocol.Exhausted -> true

let issued t = t.issued
let base t = t.base

let get t pos =
  if pos < t.base || pos >= t.issued then
    invalid_arg
      (Printf.sprintf "Source.get: position %d outside held range [%d,%d)" pos t.base t.issued);
  t.ring.(pos mod Array.length t.ring)

let release t ~below =
  let below = min below t.issued in
  for pos = t.base to below - 1 do
    t.ring.(pos mod Array.length t.ring) <- ""
  done;
  if below > t.base then t.base <- below
