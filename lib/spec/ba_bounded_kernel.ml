module M = Ba_channel.Multiset

type params = { w : int; n : int; limit : int }
type data = { wv : int; gv : int }
type ack = { wi : int; wj : int; gi : int; gj : int }

(* Bounded state is everything a real implementation stores; the g_
   fields are the paper's unbounded variables, updated in parallel and
   never read by any guard or update. *)
type sender = { bna : int; bns : int; backd : Iset.t; g_na : int; g_ns : int; g_ackd : Iset.t }
type receiver = { bnr : int; bvr : int; brcvd : Iset.t; g_nr : int; g_vr : int; g_rcvd : Iset.t }

let validate ~who p =
  let fail what = invalid_arg (who ^ ": " ^ what) in
  if p.w <= 0 then fail "w must be positive";
  if p.n <= 0 || p.n mod p.w <> 0 then fail "n must be a positive multiple of w";
  if p.limit < 0 then fail "limit must be >= 0"

let initial_sender =
  { bna = 0; bns = 0; backd = Iset.empty; g_na = 0; g_ns = 0; g_ackd = Iset.empty }

let initial_receiver =
  { bnr = 0; bvr = 0; brcvd = Iset.empty; g_nr = 0; g_vr = 0; g_rcvd = Iset.empty }

let wrap p m = Ba_util.Modseq.wrap ~n:p.n m
let succ p m = Ba_util.Modseq.succ ~n:p.n m
let dist p a b = Ba_util.Modseq.distance ~n:p.n a b
let slot p wire = wire mod p.w

(* Action 0: guard ns < na + w, i.e. forward distance from bna to bns is
   below w. The ghost ns bounds the input sequence (environment bound,
   not protocol state). *)
let send_new p s =
  if dist p s.bna s.bns < p.w && s.g_ns < p.limit then
    Some ({ s with bns = succ p s.bns; g_ns = s.g_ns + 1 }, { wv = s.bns; gv = s.g_ns })
  else None

(* Action 1' with bounded storage: a covered wire number y is relevant
   iff it lies inside the outstanding band [bna, bns); its ackd slot is
   y mod w (sound because w | n). Advancing na clears its slot. *)
let recv_ack p s a =
  let covered = dist p a.wi a.wj + 1 in
  let outstanding = dist p s.bna s.bns in
  let rec mark k backd =
    if k >= covered then backd
    else begin
      let y = wrap p (a.wi + k) in
      mark (k + 1) (if dist p s.bna y < outstanding then Iset.add (slot p y) backd else backd)
    end
  in
  let rec advance s =
    if Iset.mem (slot p s.bna) s.backd then
      let backd = Iset.remove (slot p s.bna) s.backd in
      advance { s with bna = succ p s.bna; backd; g_na = s.g_na + 1 }
    else s
  in
  advance { s with backd = mark 0 s.backd; g_ackd = Iset.add_range ~lo:a.gi ~hi:a.gj s.g_ackd }

(* Action 2, simple timeout, all conjuncts bounded:
     na <> ns  ~  bna <> bns (outstanding > 0);
     channels empty  ~  [quiet] (environment knowledge, as in the
     unbounded spec);
     ¬rcvd[nr]  ~  nr = vr and nr's slot not in the out-of-order array. *)
let timeout p s r ~quiet =
  if quiet && s.bna <> s.bns && r.bnr = r.bvr && not (Iset.mem (slot p r.bnr) r.brcvd) then
    Some { wv = s.bna; gv = s.g_na }
  else None

(* Action 3': classify the wire number by its distance from bnr — below
   w means the new-data band [nr, nr+w), otherwise it is an old
   duplicate from [nr-w, nr) (assertion 11 guarantees nothing else can
   be in transit). *)
let recv_data p r d =
  if dist p r.bnr d.wv < p.w then
    ({ r with brcvd = Iset.add (slot p d.wv) r.brcvd; g_rcvd = Iset.add d.gv r.g_rcvd }, None)
  else (r, Some { wi = d.wv; wj = d.wv; gi = d.gv; gj = d.gv })

(* Action 4: rcvd[vr mod w] -> advance vr and clear the slot. *)
let advance_vr p r =
  if Iset.mem (slot p r.bvr) r.brcvd then
    let brcvd = Iset.remove (slot p r.bvr) r.brcvd in
    Some { r with brcvd; bvr = succ p r.bvr; g_vr = r.g_vr + 1 }
  else None

(* Action 5: nr < vr ~ bnr <> bvr. *)
let send_ack p r =
  if r.bnr <> r.bvr then
    Some
      ( { r with bnr = r.bvr; g_nr = r.g_vr },
        { wi = r.bnr; wj = wrap p (r.bvr - 1); gi = r.g_nr; gj = r.g_vr - 1 } )
  else None

(* -------------------------------------------------------------- *)
(* The refinement check: bounded state ≡ ghost state. *)

let fail fmt = Format.kasprintf (fun m -> Some m) fmt

let slots_of p predicate lo hi =
  let rec go m acc =
    if m >= hi then acc else go (m + 1) (if predicate m then Iset.add (m mod p.w) acc else acc)
  in
  go (max 0 lo) Iset.empty

let refinement p s r =
  if s.bna <> wrap p s.g_na then fail "refinement: bna=%d <> na mod n=%d" s.bna (wrap p s.g_na)
  else if s.bns <> wrap p s.g_ns then fail "refinement: bns=%d <> ns mod n" s.bns
  else if r.bnr <> wrap p r.g_nr then fail "refinement: bnr=%d <> nr mod n" r.bnr
  else if r.bvr <> wrap p r.g_vr then fail "refinement: bvr=%d <> vr mod n" r.bvr
  else begin
    let expected_ackd = slots_of p (fun m -> Iset.mem m s.g_ackd && m >= s.g_na) s.g_na s.g_ns in
    if s.backd <> expected_ackd then
      fail "refinement: ackd slots %a <> ghost %a" Iset.pp s.backd Iset.pp expected_ackd
    else begin
      let expected_rcvd =
        slots_of p (fun m -> Iset.mem m r.g_rcvd && m >= r.g_vr) r.g_vr (r.g_nr + p.w)
      in
      if r.brcvd <> expected_rcvd then
        fail "refinement: rcvd slots %a <> ghost %a" Iset.pp r.brcvd Iset.pp expected_rcvd
      else None
    end
  end

let reconstruction p ~data csr ~ack crs =
  let bad_data m = Option.bind (data m) (fun d -> if d.wv <> wrap p d.gv then Some d else None) in
  let bad_ack m =
    Option.bind (ack m) (fun a ->
        if a.wi <> wrap p a.gi || a.wj <> wrap p a.gj then Some a else None)
  in
  match List.find_map bad_data (M.distinct csr) with
  | Some d -> fail "wire: data carries w%d but truth %d" d.wv d.gv
  | None -> (
      match List.find_map bad_ack (M.distinct crs) with
      | Some a -> fail "wire: ack carries (w%d,w%d) but truth (%d,%d)" a.wi a.wj a.gi a.gj
      | None -> None)

let ghost_view p s r ~data csr ~ack crs =
  let count project f = M.filter_count (fun m -> Option.fold ~none:false ~some:f (project m)) in
  {
    Invariant.w = p.w;
    na = s.g_na;
    ns = s.g_ns;
    nr = r.g_nr;
    vr = r.g_vr;
    ackd = (fun m -> Iset.mem m s.g_ackd);
    rcvd = (fun m -> Iset.mem m r.g_rcvd);
    sr_count = (fun m -> count data (fun d -> d.gv = m) csr);
    rs_count = (fun m -> count ack (fun a -> a.gi <= m && m <= a.gj) crs);
    horizon = p.limit + p.w + 2;
  }

let check p s r ~data csr ~ack crs ~invariant =
  match refinement p s r with
  | Some _ as e -> e
  | None -> (
      match reconstruction p ~data csr ~ack crs with
      | Some _ as e -> e
      | None -> if invariant then Invariant.check (ghost_view p s r ~data csr ~ack crs) else None)

let pp_data ppf d = Format.fprintf ppf "%d|w%d" d.gv d.wv
let pp_ack ppf a = Format.fprintf ppf "(%d,%d)|w(%d,%d)" a.gi a.gj a.wi a.wj

let pp_endpoints ~s_tag ~r_tag ppf (s, r) =
  Format.fprintf ppf
    "S{bna=%d bns=%d ackd=%a%s | na=%d ns=%d} R{bnr=%d bvr=%d rcvd=%a%s | nr=%d vr=%d}" s.bna
    s.bns Iset.pp s.backd s_tag s.g_na s.g_ns r.bnr r.bvr Iset.pp r.brcvd r_tag r.g_nr r.g_vr
