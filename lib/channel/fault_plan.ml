type verdict = Deliver | Drop | Duplicate of int | Corrupt | Delay of int

type gilbert_elliott = {
  p_enter_bad : float;
  p_exit_bad : float;
  loss_good : float;
  loss_bad : float;
}

type outage = { from_tick : int; until_tick : int }

type t = {
  bursty : gilbert_elliott option;
  duplicate : float;
  copies : int;
  corrupt : float;
  delay_spike : (float * int) option;
  outages : outage list;
}

let none =
  { bursty = None; duplicate = 0.; copies = 2; corrupt = 0.; delay_spike = None; outages = [] }

let check_prob what p =
  if p < 0. || p > 1. then
    invalid_arg (Printf.sprintf "Fault_plan: %s probability %g outside [0,1]" what p)

let validate t =
  (match t.bursty with
  | None -> ()
  | Some g ->
      check_prob "p_enter_bad" g.p_enter_bad;
      check_prob "p_exit_bad" g.p_exit_bad;
      check_prob "loss_good" g.loss_good;
      check_prob "loss_bad" g.loss_bad;
      if g.p_exit_bad = 0. && g.p_enter_bad > 0. && g.loss_bad >= 1. then
        invalid_arg "Fault_plan: absorbing bad state with total loss never delivers again");
  check_prob "duplicate" t.duplicate;
  check_prob "corrupt" t.corrupt;
  if t.copies < 2 then invalid_arg "Fault_plan: copies must be >= 2";
  (match t.delay_spike with
  | Some (p, d) ->
      check_prob "delay_spike" p;
      if d < 0 then invalid_arg "Fault_plan: negative delay spike"
  | None -> ());
  List.iter
    (fun o ->
      if o.from_tick < 0 || o.until_tick <= o.from_tick then
        invalid_arg "Fault_plan: outage needs 0 <= from_tick < until_tick")
    t.outages

let make ?bursty ?(duplicate = 0.) ?(copies = 2) ?(corrupt = 0.) ?delay_spike ?(outages = [])
    () =
  let t = { bursty; duplicate; copies; corrupt; delay_spike; outages } in
  validate t;
  t

(* A top-level walk rather than [List.exists] with a closure over [now]:
   every frame a shim or link sends asks this, so it allocates nothing. *)
let rec covers now = function
  | [] -> false
  | o :: rest -> (now >= o.from_tick && now < o.until_tick) || covers now rest

let in_outage t ~now = covers now t.outages

let quiesced_after t = List.fold_left (fun acc o -> max acc o.until_tick) 0 t.outages

let pp ppf t =
  let parts = ref [] in
  let add fmt = Printf.ksprintf (fun s -> parts := s :: !parts) fmt in
  (match t.bursty with
  | Some g ->
      add "ge(%.3f->%.3f,l=%.2f/%.2f)" g.p_enter_bad g.p_exit_bad g.loss_good g.loss_bad
  | None -> ());
  if t.duplicate > 0. then add "dup(%.2fx%d)" t.duplicate t.copies;
  if t.corrupt > 0. then add "corr(%.2f)" t.corrupt;
  (match t.delay_spike with Some (p, d) -> add "spike(%.2f,+%d)" p d | None -> ());
  List.iter (fun o -> add "out[%d,%d)" o.from_tick o.until_tick) t.outages;
  match !parts with
  | [] -> Format.pp_print_string ppf "none"
  | parts -> Format.pp_print_string ppf (String.concat "+" (List.rev parts))

let to_string t = Format.asprintf "%a" pp t

(* Split a replay key into fault tokens: '+' separates tokens only at
   bracket depth 0, because [spike(0.10,+40)] carries a '+' of its own. *)
let split_tokens s =
  let toks = ref [] and buf = Buffer.create 16 and depth = ref 0 in
  String.iter
    (fun c ->
      match c with
      | '(' | '[' ->
          incr depth;
          Buffer.add_char buf c
      | ')' ->
          decr depth;
          Buffer.add_char buf c
      | '+' when !depth = 0 ->
          toks := Buffer.contents buf :: !toks;
          Buffer.clear buf
      | c -> Buffer.add_char buf c)
    s;
  toks := Buffer.contents buf :: !toks;
  List.rev_map String.trim !toks

let of_string s =
  let ( let* ) = Result.bind in
  let try_scan tok fmt k = try Some (Scanf.sscanf tok fmt k) with Scanf.Scan_failure _ | Failure _ | End_of_file -> None in
  let once what field v =
    match field with
    | None -> Ok (Some v)
    | Some _ -> Error (Printf.sprintf "duplicate %s fault in plan %S" what s)
  in
  (* Range-check each token's contribution the moment it parses, so an
     out-of-range value is reported against the token that carried it
     ("token \"out[10,5)\": …") rather than as a whole-plan validation
     failure that names neither token nor position. *)
  let checked tok piece =
    match validate piece with
    | () -> Ok ()
    | exception Invalid_argument m -> Error (Printf.sprintf "bad fault token %S: %s" tok m)
  in
  let rec go acc = function
    | [] -> Ok acc
    | tok :: rest ->
        let bursty, dup, corr, spike, outs = acc in
        let* acc =
          match try_scan tok "ge(%f->%f,l=%f/%f)%!" (fun a b c d -> (a, b, c, d)) with
          | Some (p_enter_bad, p_exit_bad, loss_good, loss_bad) ->
              let g = { p_enter_bad; p_exit_bad; loss_good; loss_bad } in
              let* () = checked tok { none with bursty = Some g } in
              let* g = once "ge" bursty g in
              Ok (g, dup, corr, spike, outs)
          | None -> (
              match try_scan tok "dup(%fx%d)%!" (fun p c -> (p, c)) with
              | Some (p, c) ->
                  let* () = checked tok { none with duplicate = p; copies = c } in
                  let* d = once "dup" dup (p, c) in
                  Ok (bursty, d, corr, spike, outs)
              | None -> (
                  match try_scan tok "corr(%f)%!" (fun p -> p) with
                  | Some c ->
                      let* () = checked tok { none with corrupt = c } in
                      let* c = once "corr" corr c in
                      Ok (bursty, dup, c, spike, outs)
                  | None -> (
                      match try_scan tok "spike(%f,+%d)%!" (fun p d -> (p, d)) with
                      | Some sp ->
                          let* () = checked tok { none with delay_spike = Some sp } in
                          let* sp = once "spike" spike sp in
                          Ok (bursty, dup, corr, sp, outs)
                      | None -> (
                          match try_scan tok "out[%d,%d)%!" (fun a b -> { from_tick = a; until_tick = b }) with
                          | Some o ->
                              let* () = checked tok { none with outages = [ o ] } in
                              Ok (bursty, dup, corr, spike, o :: outs)
                          | None -> Error (Printf.sprintf "unrecognized fault token %S in plan %S" tok s)))))
        in
        go acc rest
  in
  if String.trim s = "none" then Ok none
  else
    let* bursty, dup, corr, spike, outs = go (None, None, None, None, []) (split_tokens s) in
    let duplicate, copies = match dup with Some (p, c) -> (p, c) | None -> (0., 2) in
    let t =
      {
        bursty;
        duplicate;
        copies;
        corrupt = Option.value corr ~default:0.;
        delay_spike = spike;
        outages = List.rev outs;
      }
    in
    match validate t with () -> Ok t | exception Invalid_argument m -> Error m

type burst_stats = { steps : int; bad_entries : int; bad_steps : int }

(* [decide] runs once per frame, so it allocates nothing. The burst
   probabilities are copied out of the all-float [gilbert_elliott]
   record, which stores them unboxed and would box one for every
   [Rng.bernoulli] call; a float field of this mixed record is boxed
   once, here. The verdicts that carry an argument are built here too. *)
type instance = {
  plan : t;
  rng : Ba_util.Rng.t;
  p_enter_bad : float;
  p_exit_bad : float;
  loss_good : float;
  loss_bad : float;
  duplicated : verdict;  (* [Duplicate copies] *)
  spiked : verdict;  (* [Delay extra] of the delay spike *)
  mutable in_bad : bool;
  mutable steps : int;
  mutable bad_entries : int;
  mutable bad_steps : int;
}

let instantiate plan ~rng =
  validate plan;
  let g =
    Option.value plan.bursty
      ~default:{ p_enter_bad = 0.; p_exit_bad = 0.; loss_good = 0.; loss_bad = 0. }
  in
  {
    plan;
    rng;
    p_enter_bad = g.p_enter_bad;
    p_exit_bad = g.p_exit_bad;
    loss_good = g.loss_good;
    loss_bad = g.loss_bad;
    duplicated = Duplicate plan.copies;
    spiked = (match plan.delay_spike with Some (_, extra) -> Delay extra | None -> Deliver);
    in_bad = false;
    steps = 0;
    bad_entries = 0;
    bad_steps = 0;
  }

let plan i = i.plan

let ge_step i =
  (if i.in_bad then begin
     if Ba_util.Rng.bernoulli i.rng i.p_exit_bad then i.in_bad <- false
   end
   else if Ba_util.Rng.bernoulli i.rng i.p_enter_bad then begin
     i.in_bad <- true;
     i.bad_entries <- i.bad_entries + 1
   end);
  if i.in_bad then i.bad_steps <- i.bad_steps + 1;
  Ba_util.Rng.bernoulli i.rng (if i.in_bad then i.loss_bad else i.loss_good)

let decide i =
  i.steps <- i.steps + 1;
  let p = i.plan in
  let lost = match p.bursty with Some _ -> ge_step i | None -> false in
  if lost then Drop
  else if p.duplicate > 0. && Ba_util.Rng.bernoulli i.rng p.duplicate then i.duplicated
  else if p.corrupt > 0. && Ba_util.Rng.bernoulli i.rng p.corrupt then Corrupt
  else
    match p.delay_spike with
    | Some (prob, _) when Ba_util.Rng.bernoulli i.rng prob -> i.spiked
    | Some _ | None -> Deliver

let burst_stats i = { steps = i.steps; bad_entries = i.bad_entries; bad_steps = i.bad_steps }
