open Spec_types
module M = Ba_channel.Multiset

module Make (P : sig
  val w : int
  val limit : int
  val naive : bool
end) =
struct
  (* Action 2' (Section IV): per-message timers — the fair-retransmission
     engine that has to absorb pressure drops. *)
  let params = { Ba_kernel.w = P.w; lead = None; n = None; limit = P.limit; timer = Per_message }
  let () = Ba_kernel.validate params

  include Ba_kernel.Spec (struct
    let params = params
  end)

  let name =
    Printf.sprintf "blockack-pressure(w=%d,limit=%d%s)" P.w P.limit
      (if P.naive then ",naive" else "")

  (* Buffer pressure, sound variant: the receiver may nondeterministically
     evict ANY buffered out-of-order slot — every slot strictly above the
     contiguous frontier [vr] is fair game, which over-approximates both
     policies (drop-new refusal at arrival is the kernel's existing
     [lose_data]; drop-furthest eviction is this action). The run
     [nr, vr) is excluded: those receptions are committed to the next
     block acknowledgment, and evicting one would break the ack's
     contiguity claim. The victim was never acknowledged, so the drop is
     [Loss]-kind — behaviorally a channel loss that action 2' repairs —
     and the explorer must find assertions 6–8 intact and progress
     (loss-free completion) reachable from every state. *)
  let pressure_drop (s : state) =
    List.filter_map
      (fun v ->
        if v > s.vr then
          Some
            { label = Printf.sprintf "pressure_drop(%d)" v;
              kind = Loss;
              target = { s with rcvd = Iset.remove v s.rcvd } }
        else None)
      (Iset.elements s.rcvd)

  (* Naive variant: acknowledge first, then discover the buffer is full
     and discard the payload. The singleton ack for the never-buffered
     slot enters the channel as a protocol step — and assertion 8's
     in-transit-ack clause ([rs_count m = 0 ∨ (m < nr ∧ ¬ackd m)])
     catches it mechanically on the very next state. *)
  let ack_before_buffer (s : state) =
    List.filter_map
      (fun (d : Ba_kernel.data) ->
        if d.gv > s.vr then
          Some
            { label = Printf.sprintf "ack_drop(%d)" d.gv;
              kind = Protocol;
              target =
                { s with
                  csr = M.remove d s.csr;
                  crs = M.add (Ba_kernel.ack params d.gv d.gv) s.crs
                } }
        else None)
      (M.distinct s.csr)

  let transitions s =
    transitions s @ pressure_drop s @ (if P.naive then ack_before_buffer s else [])
end

let default ~w ~limit ~naive =
  (module Make (struct
    let w = w
    let limit = limit
    let naive = naive
  end) : Spec_types.SPEC)
