open Spec_types
module M = Ba_channel.Multiset
module K = Ba_bounded_kernel

module Make (P : sig
  val w : int
  val n : int
  val limit : int
  val epochs : bool
  val max_crashes : int
  val victims : [ `Sender | `Receiver | `Both ]
end) =
struct
  let p = { K.w = P.w; n = P.n; limit = P.limit }

  let () =
    K.validate ~who:"Ba_spec_crash" p;
    if P.max_crashes < 0 then invalid_arg "Ba_spec_crash: max_crashes must be >= 0"

  (* Sender-to-receiver traffic: data frames plus the handshake's REQ
     ("where are we?") and FIN ("position adopted"). Receiver-to-sender:
     block acks plus POS ("resume at [pos]"). Every frame carries its
     issuer's incarnation epoch; POS carries the receiver's durable
     delivered count as an absolute (modulus-exempt) position, exactly as
     the implementation's resync frames do. *)
  type dmsg = Data of K.data * int | Req of { ep : int } | Fin of { ep : int }
  type amsg = Ack of K.ack * int | Pos of { ep : int; pos : int }

  type state = {
    (* The bounded endpoints and their ghosts: volatile, except the
       receiver's delivered count [rcv.g_vr], which the application
       keeps. *)
    snd : K.sender;
    rcv : K.receiver;
    ep_s : int;  (** sender incarnation; stable storage *)
    sync_s : bool;  (** restarted: REQ sent, POS pending; window frozen *)
    ep_r : int;  (** receiver incarnation; stable storage *)
    sync_r : bool;  (** restarted: POS sent, FIN (or fresh data) pending *)
    csr : dmsg M.t;
    crs : amsg M.t;
    (* Application truth, which no crash can rewrite: [g_issued] counts
       payloads the user program ever submitted (the durable outbox);
       [g_del] is what it has seen delivered; [dup] records the first
       value handed over twice. *)
    g_issued : int;
    g_del : Iset.t;
    dup : int option;
    crashes : int;
  }

  let name =
    Printf.sprintf "blockack-crash-%s(w=%d,n=%d,limit=%d,crashes<=%d)"
      (if P.epochs then "epochs" else "naive")
      P.w P.n P.limit P.max_crashes

  let initial =
    {
      snd = K.initial_sender;
      rcv = K.initial_receiver;
      ep_s = 0;
      sync_s = false;
      ep_r = 0;
      sync_r = false;
      csr = M.empty;
      crs = M.empty;
      g_issued = 0;
      g_del = Iset.empty;
      dup = None;
      crashes = 0;
    }

  let iset_below limit s = Iset.of_list (List.filter (fun m -> m < limit) (Iset.elements s))
  let step label target = { label; kind = Protocol; target }

  (* ---------------------------------------------------------------- *)
  (* The paper's actions, epoch-stamped. *)

  let send_new s =
    match K.send_new p s.snd with
    | Some (snd, d) when not s.sync_s ->
        [ step
            (Printf.sprintf "send(%d|w%d,e%d)" d.gv d.wv s.ep_s)
            { s with
              snd;
              csr = M.add (Data (d, s.ep_s)) s.csr;
              g_issued = max s.g_issued snd.g_ns
            } ]
    | _ -> []

  let timeout s =
    match K.timeout p s.snd s.rcv ~quiet:(M.is_empty s.csr && M.is_empty s.crs) with
    | Some d when not s.sync_s ->
        [ step
            (Printf.sprintf "timeout->resend(w%d,e%d)" d.wv s.ep_s)
            { s with csr = M.add (Data (d, s.ep_s)) s.csr } ]
    | _ -> []

  (* Receiver-side epoch adoption: the sender restarted into a later
     incarnation, so the out-of-order buffer holds frames of a dead one —
     discard it (its contents will be resent from the position we
     announce) and track the new epoch. Durable state (vr, the delivered
     count) is untouched: delivery cannot be revoked. *)
  let r_adopt s ep =
    { s with
      ep_r = ep;
      rcv = { s.rcv with brcvd = Iset.empty; g_rcvd = iset_below s.rcv.g_vr s.rcv.g_rcvd }
    }

  (* POS doubles as a cumulative acknowledgment of everything delivered,
     so the receiver's ack debt [nr, vr) is settled by sending it. *)
  let send_pos s =
    { s with
      rcv = { s.rcv with bnr = s.rcv.bvr; g_nr = s.rcv.g_vr };
      crs = M.add (Pos { ep = s.ep_r; pos = s.rcv.g_vr }) s.crs
    }

  (* Sender-side resync: adopt the receiver's position as the whole
     window — everything below [pos] was delivered (POS says so), nothing
     at or above it is outstanding. The durable application outbox
     replays the tail through send_new. *)
  let s_resync s ~ep ~pos =
    let b = K.wrap p pos in
    { s with
      ep_s = ep;
      sync_s = false;
      snd =
        { bna = b;
          bns = b;
          backd = Iset.empty;
          g_na = pos;
          g_ns = pos;
          g_ackd = Iset.add_range ~lo:0 ~hi:(pos - 1) s.snd.g_ackd
        }
    }

  let recv_data s =
    List.concat_map
      (fun (m : dmsg) ->
        let csr = M.remove m s.csr in
        match m with
        | Req { ep } ->
            if not P.epochs then []
            else if ep < s.ep_r then
              [ step (Printf.sprintf "drop_stale_req(e%d)" ep) { s with csr } ]
            else
              let s' = if ep > s.ep_r then r_adopt s ep else s in
              [ step
                  (Printf.sprintf "recv_req(e%d)->pos(%d)" ep s'.rcv.g_vr)
                  (send_pos { s' with csr }) ]
        | Fin { ep } ->
            if not P.epochs then []
            else if ep < s.ep_r then
              [ step (Printf.sprintf "drop_stale_fin(e%d)" ep) { s with csr } ]
            else
              let s' = if ep > s.ep_r then r_adopt s ep else s in
              [ step (Printf.sprintf "recv_fin(e%d)" ep) { s' with csr; sync_r = false } ]
        | Data (d, ep) ->
            if P.epochs && ep < s.ep_r then
              [ step (Printf.sprintf "drop_stale_data(%d,e%d)" d.gv ep) { s with csr } ]
            else begin
              (* Higher epoch: adopt first. Same epoch: fresh data is an
                 implicit FIN. Either way the frame then decodes against
                 the (possibly just cleared) receive window. *)
              let s = if P.epochs && ep > s.ep_r then r_adopt s ep else s in
              let rcv, dup = K.recv_data p s.rcv d in
              let crs = match dup with Some a -> M.add (Ack (a, s.ep_r)) s.crs | None -> s.crs in
              [ step
                  (Printf.sprintf "recv_data(w%d,e%d)" d.wv ep)
                  { s with csr; crs; rcv; sync_r = false } ]
            end)
      (M.distinct s.csr)

  let advance_vr s =
    match K.advance_vr p s.rcv with
    | Some rcv ->
        let v = s.rcv.g_vr in
        [ step
            (Printf.sprintf "deliver(%d|w%d)" v s.rcv.bvr)
            { s with
              rcv;
              dup = (if s.dup = None && Iset.mem v s.g_del then Some v else s.dup);
              g_del = Iset.add v s.g_del
            } ]
    | None -> []

  let send_ack s =
    match K.send_ack p s.rcv with
    | Some (rcv, a) ->
        [ step
            (Printf.sprintf "send_ack(w%d,w%d,e%d)" a.wi a.wj s.ep_r)
            { s with rcv; crs = M.add (Ack (a, s.ep_r)) s.crs } ]
    | None -> []

  let recv_ack s =
    List.concat_map
      (fun (m : amsg) ->
        let crs = M.remove m s.crs in
        match m with
        | Pos { ep; pos } ->
            if not P.epochs then []
            else if ep < s.ep_s then
              [ step (Printf.sprintf "drop_stale_pos(e%d)" ep) { s with crs } ]
            else if ep > s.ep_s || s.sync_s then
              (* Adopt the position (receiver is the authority) and
                 confirm with FIN. *)
              let s' = s_resync { s with crs } ~ep ~pos in
              [ step
                  (Printf.sprintf "recv_pos(e%d,%d)->resync" ep pos)
                  { s' with csr = M.add (Fin { ep = s'.ep_s }) s'.csr } ]
            else
              (* Same epoch, already synced: our FIN was lost. Re-confirm
                 without touching the window. *)
              [ step
                  (Printf.sprintf "recv_pos(e%d,%d)->refin" ep pos)
                  { s with crs; csr = M.add (Fin { ep = s.ep_s }) s.csr } ]
        | Ack (a, ep) ->
            let label = Printf.sprintf "%s(w%d,w%d,e%d)" in
            if P.epochs && (ep <> s.ep_s || s.sync_s) then
              [ step (label "drop_ack" a.wi a.wj ep) { s with crs } ]
            else
              [ step (label "recv_ack" a.wi a.wj ep) { s with crs; snd = K.recv_ack p s.snd a } ])
      (M.distinct s.crs)

  (* ---------------------------------------------------------------- *)
  (* Handshake retries: like action 2, guarded on the environment's
     knowledge that nothing is in transit (the timer idealization). *)

  let resend_req s =
    if P.epochs && s.sync_s && M.is_empty s.csr && M.is_empty s.crs then
      [ step
          (Printf.sprintf "resync_timeout->req(e%d)" s.ep_s)
          { s with csr = M.add (Req { ep = s.ep_s }) s.csr } ]
    else []

  let resend_pos s =
    if P.epochs && s.sync_r && M.is_empty s.csr && M.is_empty s.crs then
      [ step (Printf.sprintf "resync_timeout->pos(e%d,%d)" s.ep_r s.rcv.g_vr) (send_pos s) ]
    else []

  (* ---------------------------------------------------------------- *)
  (* Environment faults. A crash and its restart are collapsed into one
     atomic transition: the down window only loses in-transit frames,
     which the Loss transitions already model. *)

  let crash_sender s =
    if s.crashes >= P.max_crashes || P.victims = `Receiver then []
    else
      let base =
        { s with
          snd = { K.initial_sender with g_ackd = s.snd.g_ackd };
          crashes = s.crashes + 1
        }
      in
      let target =
        if P.epochs then
          let ep = s.ep_s + 1 in
          { base with ep_s = ep; sync_s = true; csr = M.add (Req { ep }) base.csr }
        else base
      in
      [ { label = Printf.sprintf "crash_sender(e%d)" target.ep_s; kind = Crash; target } ]

  let crash_receiver s =
    if s.crashes >= P.max_crashes || P.victims = `Sender then []
    else if P.epochs then
      (* Durable: epoch and the delivered count (g_vr). The unacked run
         [nr, vr) and the out-of-order buffer are volatile; POS re-acks
         the former. *)
      let ep = s.ep_r + 1 in
      let base = r_adopt { s with sync_r = true; crashes = s.crashes + 1 } ep in
      [ { label = Printf.sprintf "crash_receiver(e%d)" ep; kind = Crash; target = send_pos base } ]
    else
      [ { label = "crash_receiver";
          kind = Crash;
          target = { s with rcv = K.initial_receiver; crashes = s.crashes + 1 } } ]

  let lose s =
    List.map
      (fun (m : dmsg) ->
        let label =
          match m with
          | Data (d, _) -> Printf.sprintf "lose_data(%d)" d.gv
          | Req { ep } -> Printf.sprintf "lose_req(e%d)" ep
          | Fin { ep } -> Printf.sprintf "lose_fin(e%d)" ep
        in
        { label; kind = Loss; target = { s with csr = M.remove m s.csr } })
      (M.distinct s.csr)
    @ List.map
        (fun (m : amsg) ->
          let label =
            match m with
            | Ack (a, _) -> Printf.sprintf "lose_ack(%d,%d)" a.gi a.gj
            | Pos { ep; pos } -> Printf.sprintf "lose_pos(e%d,%d)" ep pos
          in
          { label; kind = Loss; target = { s with crs = M.remove m s.crs } })
        (M.distinct s.crs)

  let transitions s =
    send_new s @ recv_ack s @ timeout s @ recv_data s @ advance_vr s @ send_ack s @ resend_req s
    @ resend_pos s @ crash_sender s @ crash_receiver s @ lose s

  (* ---------------------------------------------------------------- *)
  (* Checks. At-most-once delivery is asserted in {e every} reachable
     state — it is the property crashes threaten. The paper's assertions
     6–8 are a closure property: they hold in crash-free runs and, with
     epochs, in every {e stabilized} state (epochs agree, no handshake
     pending, no stale frame in transit) — the self-stabilization claim.
     In between (and always, in naive mode, once a crash has happened)
     they are legitimately violated; that violation is the bug the
     handshake exists to contain. *)

  let stabilized s =
    (not s.sync_s) && (not s.sync_r) && s.ep_s = s.ep_r
    && List.for_all
         (function Data (_, ep) | Req { ep } | Fin { ep } -> ep = s.ep_s)
         (M.distinct s.csr)
    && List.for_all (function Ack (_, ep) | Pos { ep; _ } -> ep = s.ep_s) (M.distinct s.crs)

  (* The bounded/ghost mirror is meaningful wherever the protocol is
     honest about incarnations: always with epochs, only pre-crash
     without (the naive restart knowingly corrupts the correspondence —
     the application-level symptoms below are its indictment). *)
  let mirror_ok s = P.epochs || s.crashes = 0

  let check s =
    match s.dup with
    | Some v ->
        Some (Printf.sprintf "duplicate delivery: value %d handed to the application twice" v)
    | None ->
        if Iset.exists (fun m -> m >= s.g_issued) s.g_del then
          Some "phantom delivery: a value the application never submitted was delivered"
        else if mirror_ok s then
          K.check p s.snd s.rcv
            ~data:(function Data (d, _) -> Some d | Req _ | Fin _ -> None)
            s.csr
            ~ack:(function Ack (a, _) -> Some a | Pos _ -> None)
            s.crs
            ~invariant:(if P.epochs then stabilized s else s.crashes = 0)
        else None

  let terminal s = s.snd.g_na >= P.limit

  (* The paper's measure na+ns+nr+vr is rewound by resync, so this spec
     uses a crash-robust one: delivered values are never forgotten and
     epochs never decrease along protocol actions. *)
  let measure s = Iset.cardinal s.g_del + s.ep_s + s.ep_r

  let pp ppf s =
    let tag ep sync = Printf.sprintf " e%d%s" ep (if sync then "!" else "") in
    Format.fprintf ppf "%a del=%a crashes=%d CSR=%a CRS=%a"
      (K.pp_endpoints ~s_tag:(tag s.ep_s s.sync_s) ~r_tag:(tag s.ep_r s.sync_r))
      (s.snd, s.rcv) Iset.pp s.g_del s.crashes
      (M.pp (fun ppf -> function
         | Data (d, ep) -> Format.fprintf ppf "%a|e%d" K.pp_data d ep
         | Req { ep } -> Format.fprintf ppf "req|e%d" ep
         | Fin { ep } -> Format.fprintf ppf "fin|e%d" ep))
      s.csr
      (M.pp (fun ppf -> function
         | Ack (a, ep) -> Format.fprintf ppf "%a|e%d" K.pp_ack a ep
         | Pos { ep; pos } -> Format.fprintf ppf "pos(%d)|e%d" pos ep))
      s.crs
end

let default ~w ?n ~limit ~epochs ?(max_crashes = 1) ?(victims = `Both) () =
  let n = match n with Some n -> n | None -> 2 * w in
  (module Make (struct
    let w = w
    let n = n
    let limit = limit
    let epochs = epochs
    let max_crashes = max_crashes
    let victims = victims
  end) : Spec_types.SPEC)
