open Spec_types
module M = Ba_channel.Multiset
module K = Ba_bounded_kernel

module Make (P : sig
  val w : int
  val n : int
  val limit : int
end) =
struct
  let p = { K.w = P.w; n = P.n; limit = P.limit }
  let () = K.validate ~who:"Ba_spec_bounded" p

  type state = { snd : K.sender; rcv : K.receiver; csr : K.data M.t; crs : K.ack M.t }

  let name = Printf.sprintf "blockack-V-bounded(w=%d,n=%d,limit=%d)" P.w P.n P.limit
  let initial = { snd = K.initial_sender; rcv = K.initial_receiver; csr = M.empty; crs = M.empty }
  let step label target = { label; kind = Protocol; target }

  let send_new s =
    match K.send_new p s.snd with
    | Some (snd, d) ->
        [ step (Printf.sprintf "send(%d|w%d)" d.gv d.wv) { s with snd; csr = M.add d s.csr } ]
    | None -> []

  let recv_ack s =
    List.map
      (fun (a : K.ack) ->
        step
          (Printf.sprintf "recv_ack(w%d,w%d)" a.wi a.wj)
          { s with crs = M.remove a s.crs; snd = K.recv_ack p s.snd a })
      (M.distinct s.crs)

  let timeout s =
    match K.timeout p s.snd s.rcv ~quiet:(M.is_empty s.csr && M.is_empty s.crs) with
    | Some d -> [ step (Printf.sprintf "timeout->resend(w%d)" d.wv) { s with csr = M.add d s.csr } ]
    | None -> []

  let recv_data s =
    List.map
      (fun (d : K.data) ->
        let rcv, dup = K.recv_data p s.rcv d in
        let crs = match dup with Some a -> M.add a s.crs | None -> s.crs in
        step (Printf.sprintf "recv_data(w%d)" d.wv) { s with csr = M.remove d s.csr; rcv; crs })
      (M.distinct s.csr)

  let advance_vr s =
    match K.advance_vr p s.rcv with
    | Some rcv -> [ step (Printf.sprintf "advance_vr(w%d)" s.rcv.bvr) { s with rcv } ]
    | None -> []

  let send_ack s =
    match K.send_ack p s.rcv with
    | Some (rcv, a) ->
        [ step (Printf.sprintf "send_ack(w%d,w%d)" a.wi a.wj) { s with rcv; crs = M.add a s.crs } ]
    | None -> []

  let lose s =
    List.map
      (fun (d : K.data) ->
        { label = Printf.sprintf "lose_data(%d)" d.gv;
          kind = Loss;
          target = { s with csr = M.remove d s.csr } })
      (M.distinct s.csr)
    @ List.map
        (fun (a : K.ack) ->
          { label = Printf.sprintf "lose_ack(%d,%d)" a.gi a.gj;
            kind = Loss;
            target = { s with crs = M.remove a s.crs } })
        (M.distinct s.crs)

  let transitions s =
    send_new s @ recv_ack s @ timeout s @ recv_data s @ advance_vr s @ send_ack s @ lose s

  let check s =
    K.check p s.snd s.rcv ~data:Option.some s.csr ~ack:Option.some s.crs ~invariant:true

  let terminal s = s.snd.g_na >= P.limit
  let measure s = s.snd.g_na + s.snd.g_ns + s.rcv.g_nr + s.rcv.g_vr

  let pp ppf s =
    Format.fprintf ppf "%a CSR=%a CRS=%a"
      (K.pp_endpoints ~s_tag:"" ~r_tag:"")
      (s.snd, s.rcv) (M.pp K.pp_data) s.csr (M.pp K.pp_ack) s.crs
end

let default ~w ?n ~limit () =
  let n = match n with Some n -> n | None -> 2 * w in
  (module Make (struct
    let w = w
    let n = n
    let limit = limit
  end) : Spec_types.SPEC)
