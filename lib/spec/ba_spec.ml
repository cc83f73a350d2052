module Make (P : sig
  val w : int
  val limit : int
end) =
struct
  let params = { Ba_kernel.w = P.w; lead = None; n = None; limit = P.limit; timer = Whole_channel }
  let () = Ba_kernel.validate ~who:"Ba_kernel" params

  include Ba_kernel.Spec (struct
    let name = Printf.sprintf "blockack-II(w=%d,limit=%d)" P.w P.limit
    let params = params
  end)
end

let default ~w ~limit =
  (module Make (struct
    let w = w
    let limit = limit
  end) : Spec_types.SPEC)
