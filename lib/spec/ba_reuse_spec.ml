module Make (P : sig
  val w : int
  val lead : int
  val n : int
  val limit : int
end) =
struct
  let params =
    { Ba_kernel.w = P.w; lead = Some P.lead; n = Some P.n; limit = P.limit; timer = Per_message }

  let () = Ba_kernel.validate ~who:"Ba_reuse_spec" params

  include Ba_kernel.Spec (struct
    let name =
      Printf.sprintf "blockack-VI-reuse(w=%d,lead=%d,n=%d,limit=%d)" P.w P.lead P.n P.limit

    let params = params
  end)
end

let default ~w ?lead ?n ~limit () =
  let lead = match lead with Some l -> l | None -> 2 * w in
  let n = match n with Some n -> n | None -> 2 * lead in
  (module Make (struct
    let w = w
    let lead = lead
    let n = n
    let limit = limit
  end) : Spec_types.SPEC)
