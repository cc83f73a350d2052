module Make (P : sig
  val w : int
  val n : int
  val limit : int
end) =
struct
  let params =
    { Ba_kernel.w = P.w; lead = None; n = Some P.n; limit = P.limit; timer = Whole_channel }

  let () = Ba_kernel.validate ~who:"Ba_spec_finite" params

  include Ba_kernel.Spec (struct
    let name = Printf.sprintf "blockack-V(w=%d,n=%d,limit=%d)" P.w P.n P.limit
    let params = params
  end)
end

let default ~w ?n ~limit () =
  let n = match n with Some n -> n | None -> 2 * w in
  (module Make (struct
    let w = w
    let n = n
    let limit = limit
  end) : Spec_types.SPEC)
