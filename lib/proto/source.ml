(* The outbox is a dense {!Ba_util.Ring_buffer} column over positions
   [base, issued), at [pos mod capacity]. It starts empty and doubles as
   it fills, like the senders' window columns: a two-message flow holds
   two slots, and a sender that releases its acknowledged prefix holds
   about a window. *)
type t = {
  supplier : unit -> string option;
  mutable ring : string array;
  mutable base : int;
  mutable issued : int;
  mutable pending : string option;
}

let create supplier = { supplier; ring = [||]; base = 0; issued = 0; pending = None }

let next t =
  let fresh =
    match t.pending with
    | Some _ as p ->
        t.pending <- None;
        p
    | None -> t.supplier ()
  in
  (match fresh with
  | None -> ()
  | Some p ->
      if t.issued - t.base = Array.length t.ring then begin
        let cap =
          Ba_util.Ring_buffer.next_capacity (Array.length t.ring) ~need:(t.issued - t.base)
            ~limit:max_int
        in
        t.ring <- Ba_util.Ring_buffer.place t.ring ~cap ~fill:"" ~lo:t.base ~hi:t.issued
      end;
      t.ring.(t.issued mod Array.length t.ring) <- p;
      t.issued <- t.issued + 1);
  fresh

let exhausted t =
  match t.pending with
  | Some _ -> false
  | None -> (
      match t.supplier () with
      | None -> true
      | Some p ->
          t.pending <- Some p;
          false)

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
