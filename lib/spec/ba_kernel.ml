open Spec_types
module M = Ba_channel.Multiset

type timer = Whole_channel | Per_message

type params = { w : int; lead : int option; n : int option; limit : int; timer : timer }
type data = { wv : int; gv : int }
type ack = { wi : int; wj : int; gi : int; gj : int }

type state = {
  na : int;
  ns : int;
  ackd : Iset.t;
  nr : int;
  vr : int;
  rcvd : Iset.t;
  csr : data M.t;
  crs : ack M.t;
}

let validate p =
  let fail what = invalid_arg ("Ba_kernel: " ^ what) in
  if p.w <= 0 then fail "w must be positive";
  (match (p.lead, p.n) with
  | Some lead, _ when lead < p.w -> fail "lead must be >= w"
  | Some lead, Some n when n < 2 * lead -> fail "n must be >= 2 * lead"
  | None, Some n when n <= 0 -> fail "n must be positive"
  | _ -> ());
  if p.limit < 0 then fail "limit must be >= 0"

let initial =
  {
    na = 0;
    ns = 0;
    ackd = Iset.empty;
    nr = 0;
    vr = 0;
    rcvd = Iset.empty;
    csr = M.empty;
    crs = M.empty;
  }

(* Assertion 6's band: how far ns may run ahead of na. *)
let band p = Option.value p.lead ~default:p.w
let wrap p m = match p.n with None -> m | Some n -> Ba_util.Modseq.wrap ~n m

let reconstruct p ~ref_ wire =
  match p.n with None -> wire | Some n -> Ba_util.Modseq.reconstruct ~n ~ref_ wire

(* Anchors of the paper's reconstruction: the sender decodes ack numbers
   relative to na (assertions 9, 10); the receiver decodes data numbers
   relative to max(0, nr - band) (assertion 11). *)
let sender_decode p s wire = reconstruct p ~ref_:s.na wire
let receiver_decode p s wire = reconstruct p ~ref_:(max 0 (s.nr - band p)) wire
let data p m = { wv = wrap p m; gv = m }
let ack p i j = { wi = wrap p i; wj = wrap p j; gi = i; gj = j }

(* How labels and renderings name a frame: its true number, and under a
   modulus also its wire number. *)
let show_data p d =
  match p.n with None -> string_of_int d.gv | Some _ -> Printf.sprintf "%d|w%d" d.gv d.wv

let show_ack p a =
  match p.n with
  | None -> Printf.sprintf "(%d,%d)" a.gi a.gj
  | Some _ -> Printf.sprintf "(%d,%d)|w(%d,%d)" a.gi a.gj a.wi a.wj

let unacked s =
  let rec go m acc =
    if m >= s.ns then acc else go (m + 1) (if Iset.mem m s.ackd then acc else acc + 1)
  in
  go s.na 0

let resend p s m label =
  { label; kind = Protocol; target = { s with csr = M.add (data p m) s.csr } }

(* Action 0: ns < na + band -> send ns; ns := ns + 1. Section VI also
   caps the unacknowledged messages at w. [limit] bounds the input
   sequence so the state space stays finite. *)
let send_new p s =
  if s.ns < s.na + band p && s.ns < p.limit && (p.lead = None || unacked s < p.w) then
    let d = data p s.ns in
    [ { label = Printf.sprintf "send(%s)" (show_data p d);
        kind = Protocol;
        target = { s with csr = M.add d s.csr; ns = s.ns + 1 } } ]
  else []

let rec advance_na na ackd = if Iset.mem na ackd then advance_na (na + 1) ackd else na

(* Action 1 (1'): rcv (i, j) -> i, j := f(na, i), f(na, j);
   ackd[i..j] := true; advance na. *)
let recv_ack p s =
  List.map
    (fun a ->
      let i = sender_decode p s a.wi and j = sender_decode p s a.wj in
      let ackd = Iset.add_range ~lo:i ~hi:j s.ackd in
      let label =
        match p.n with
        | None -> Printf.sprintf "recv_ack(%d,%d)" i j
        | Some _ -> Printf.sprintf "recv_ack(w%d,w%d->%d,%d)" a.wi a.wj i j
      in
      let na = advance_na s.na ackd in
      { label; kind = Protocol; target = { s with crs = M.remove a s.crs; ackd; na } })
    (M.distinct s.crs)

let sr_count s m = M.filter_count (fun d -> d.gv = m) s.csr
let rs_count s m = M.filter_count (fun a -> a.gi <= m && m <= a.gj) s.crs

(* Action 2': timeout(i) -> send i, for every i with
     na <= i < ns  ∧  ¬ackd[i]          (outstanding, unacknowledged)
     ∧ #SR(i) = 0                        (no data copy in transit)
     ∧ (i < nr ∨ ¬rcvd[i])              (receiver cannot acknowledge it)
     ∧ #RS(i) = 0                        (no covering ack in transit). *)
let timeout_2' s i =
  (not (Iset.mem i s.ackd))
  && sr_count s i = 0
  && (i < s.nr || not (Iset.mem i s.rcvd))
  && rs_count s i = 0

let timeout p s =
  match p.timer with
  | Whole_channel ->
      (* Action 2: timeout -> send na. Guard per Section II: outstanding
         messages exist, both channels empty, and every received message
         is acknowledged (¬rcvd[nr]). *)
      if s.na <> s.ns && M.is_empty s.csr && M.is_empty s.crs && not (Iset.mem s.nr s.rcvd) then
        [ resend p s s.na (Printf.sprintf "timeout->resend(%s)" (show_data p (data p s.na))) ]
      else []
  | Per_message ->
      List.filter_map
        (fun i ->
          if timeout_2' s i then Some (resend p s i (Printf.sprintf "timeout(%d)->resend(%d)" i i))
          else None)
        (List.init (max 0 (s.ns - s.na)) (fun k -> s.na + k))

(* Action 3 (3'): rcv v -> v := f(max(0, nr - band), v); if v < nr then
   send (v, v) else rcvd[v] := true. The duplicate's acknowledgment
   carries the reconstructed value as its ghost. *)
let recv_data p s =
  List.map
    (fun d ->
      let v = receiver_decode p s d.wv in
      let csr = M.remove d s.csr in
      let target =
        if v < s.nr then { s with csr; crs = M.add (ack p v v) s.crs }
        else { s with csr; rcvd = Iset.add v s.rcvd }
      in
      let shown =
        match p.n with None -> string_of_int v | Some _ -> Printf.sprintf "w%d->%d" d.wv v
      in
      { label = Printf.sprintf "recv_data(%s)" shown; kind = Protocol; target })
    (M.distinct s.csr)

(* Action 4: rcvd[vr] -> vr := vr + 1. *)
let advance_vr s =
  if Iset.mem s.vr s.rcvd then
    [ { label = Printf.sprintf "advance_vr(%d)" s.vr;
        kind = Protocol;
        target = { s with vr = s.vr + 1 } } ]
  else []

(* Action 5: nr < vr -> send (nr, vr - 1); nr := vr. *)
let send_ack p s =
  if s.nr < s.vr then
    [ { label = Printf.sprintf "send_ack(%d,%d)" s.nr (s.vr - 1);
        kind = Protocol;
        target = { s with crs = M.add (ack p s.nr (s.vr - 1)) s.crs; nr = s.vr } } ]
  else []

let lose s =
  List.map
    (fun d ->
      { label = Printf.sprintf "lose_data(%d)" d.gv;
        kind = Loss;
        target = { s with csr = M.remove d s.csr } })
    (M.distinct s.csr)
  @ List.map
      (fun a ->
        { label = Printf.sprintf "lose_ack(%d,%d)" a.gi a.gj;
          kind = Loss;
          target = { s with crs = M.remove a s.crs } })
      (M.distinct s.crs)

let transitions p s =
  send_new p s @ recv_ack p s @ timeout p s @ recv_data p s @ advance_vr s @ send_ack p s @ lose s

let fail fmt = Format.kasprintf (fun m -> Some m) fmt

(* Reconstruction soundness: decoding any in-transit message right now
   must recover its ghost. With n >= 2 * band this follows from the
   paper's assertions 9-11; below it the explorer finds a failing state. *)
let reconstruction p s =
  match List.find_opt (fun d -> receiver_decode p s d.wv <> d.gv) (M.distinct s.csr) with
  | Some d ->
      fail "reconstruction: data wire=%d decodes to %d, truth %d (nr=%d)" d.wv
        (receiver_decode p s d.wv) d.gv s.nr
  | None -> (
      match
        List.find_opt
          (fun a -> sender_decode p s a.wi <> a.gi || sender_decode p s a.wj <> a.gj)
          (M.distinct s.crs)
      with
      | Some a ->
          fail "reconstruction: ack wire=(%d,%d) decodes to (%d,%d), truth (%d,%d) (na=%d)" a.wi
            a.wj (sender_decode p s a.wi) (sender_decode p s a.wj) a.gi a.gj s.na
      | None -> None)

let view p s =
  {
    Invariant.w = band p;
    na = s.na;
    ns = s.ns;
    nr = s.nr;
    vr = s.vr;
    ackd = (fun m -> Iset.mem m s.ackd);
    rcvd = (fun m -> Iset.mem m s.rcvd);
    sr_count = sr_count s;
    rs_count = rs_count s;
    horizon = p.limit + band p + 2;
  }

let check p s =
  if p.lead <> None && unacked s > p.w then
    fail "reuse: unacked=%d exceeds budget w=%d" (unacked s) p.w
  else
    match if p.n = None then None else reconstruction p s with
    | Some _ as e -> e
    | None -> Invariant.check (view p s)

let terminal p s = s.na >= p.limit
let measure s = s.na + s.ns + s.nr + s.vr

let pp p ppf s =
  let budget = if p.lead = None then "" else Printf.sprintf " unacked=%d" (unacked s) in
  Format.fprintf ppf "S{na=%d ns=%d%s ackd=%a} R{nr=%d vr=%d rcvd=%a} CSR=%a CRS=%a" s.na s.ns
    budget Iset.pp s.ackd s.nr s.vr Iset.pp s.rcvd
    (M.pp (fun ppf d -> Format.pp_print_string ppf (show_data p d)))
    s.csr
    (M.pp (fun ppf a -> Format.pp_print_string ppf (show_ack p a)))
    s.crs

(* The paper's section a parameter set reproduces, read off the params:
   VI with a lead, V with a modulus, else II or IV by the timer. A timer
   other than the section's own is spelt out. *)
let name p =
  let section, timer =
    match (p.lead, p.n) with
    | Some _, _ -> ("VI-reuse", Per_message)
    | None, Some _ -> ("V", Whole_channel)
    | None, None -> ((if p.timer = Per_message then "IV" else "II"), p.timer)
  in
  let opt key = Option.fold ~none:"" ~some:(Printf.sprintf ",%s=%d" key) in
  Printf.sprintf "blockack-%s(w=%d%s%s,limit=%d%s)" section p.w (opt "lead" p.lead) (opt "n" p.n)
    p.limit
    (if p.timer = timer then "" else if p.timer = Per_message then ",timer=2'" else ",timer=2")

module Spec (P : sig
  val params : params
end) =
struct
  type nonrec state = state

  let name = name P.params
  let initial = initial
  let transitions = transitions P.params
  let check = check P.params
  let terminal = terminal P.params
  let measure = measure
  let pp = pp P.params
end

let spec params =
  validate params;
  (module Spec (struct
    let params = params
  end) : Spec_types.SPEC)
