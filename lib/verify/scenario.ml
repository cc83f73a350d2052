type step = { label : string; state_repr : string; check : string option }

type outcome = {
  steps : step list;
  first_violation : (int * string) option;
  failed_at : (int * string) option;
}

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

module Make (S : Ba_model.Spec_types.SPEC) = struct
  let render state = Format.asprintf "%a" S.pp state

  let replay script =
    let rec go index state script steps violation =
      match script with
      | [] -> (List.rev steps, violation, None)
      | wanted :: rest -> (
          let transitions = S.transitions state in
          match
            List.find_opt
              (fun { Ba_model.Spec_types.label; _ } -> starts_with ~prefix:wanted label)
              transitions
          with
          | None -> (List.rev steps, violation, Some (index, wanted))
          | Some { label; target; _ } ->
              let check = S.check target in
              let violation =
                match (violation, check) with
                | None, Some msg -> Some (index, msg)
                | v, _ -> v
              in
              go (index + 1) target rest
                ({ label; state_repr = render target; check } :: steps)
                violation)
    in
    let steps, first_violation, failed_at = go 0 S.initial script [] None in
    { steps; first_violation; failed_at }

  let final_state script =
    let rec go state = function
      | [] -> Some state
      | wanted :: rest -> (
          match
            List.find_opt
              (fun { Ba_model.Spec_types.label; _ } -> starts_with ~prefix:wanted label)
              (S.transitions state)
          with
          | None -> None
          | Some { target; _ } -> go target rest)
    in
    go S.initial script
end
