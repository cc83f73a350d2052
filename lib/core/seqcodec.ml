type t = int option

let create ~window ~wire_modulus =
  if window <= 0 then invalid_arg "Seqcodec.create: window must be positive";
  (match wire_modulus with
  | Some n when n < 2 * window ->
      invalid_arg
        (Printf.sprintf "Seqcodec.create: modulus %d < 2*window=%d loses information" n
           (2 * window))
  | Some _ | None -> ());
  wire_modulus

let encode t seq = match t with None -> seq | Some n -> Ba_util.Modseq.wrap ~n seq
let is_wire t wire = match t with None -> true | Some n -> 0 <= wire && wire < n

let decode_ack t ~na wire =
  match t with None -> wire | Some n -> Ba_util.Modseq.reconstruct ~n ~ref_:na wire

let decode_data t ~window ~nr wire =
  match t with
  | None -> wire
  | Some n -> Ba_util.Modseq.reconstruct ~n ~ref_:(max 0 (nr - window)) wire

let span t ~lo ~hi =
  match t with
  | None ->
      if hi < lo then invalid_arg "Seqcodec.span: hi < lo on unbounded codec";
      hi - lo + 1
  | Some n -> Ba_util.Modseq.distance ~n lo hi + 1

let shift t wire k = match t with None -> wire + k | Some n -> Ba_util.Modseq.add ~n wire k
