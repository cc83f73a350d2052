type entry = {
  name : string;
  aliases : string list;
  summary : string;
  robust : bool;
  protocol : Ba_proto.Protocol.t;
  default_modulus : window:int -> int option;
}

let unbounded ~window:_ = None
let twice_window ~window = Some (2 * window)

let all =
  [
    {
      name = "blockack-simple";
      aliases = [];
      summary = "block acknowledgment, single timeout (paper, Section II)";
      robust = false;
      protocol = Blockack.Protocols.simple;
      default_modulus = twice_window;
    };
    {
      name = "blockack-multi";
      aliases = [ "blockack" ];
      summary = "block acknowledgment, per-message timers (paper, Section IV)";
      robust = true;
      protocol = Blockack.Protocols.multi;
      default_modulus = twice_window;
    };
    {
      name = "blockack-reuse";
      aliases = [];
      summary = "block acknowledgment with slot reuse, lead 2w (paper, Section VI)";
      robust = false;
      protocol = Blockack.Protocols.reuse ();
      (* The flight band is lead = 2w wide, so reconstruction needs
         n = 2*lead = 4w (receiver window is widened to match). *)
      default_modulus = (fun ~window -> Some (4 * window));
    };
    {
      name = "go-back-n";
      aliases = [ "gbn" ];
      summary = "cumulative-ack go-back-N (classic baseline; unsafe when bounded + reordered)";
      robust = false;
      protocol = Ba_baselines.Go_back_n.protocol;
      (* Unbounded by default: the textbook w+1 modulus is exactly the
         unsafe configuration the chaos campaign demonstrates against. *)
      default_modulus = unbounded;
    };
    {
      name = "selective-repeat";
      aliases = [ "sr" ];
      summary = "per-message-ack selective repeat (robust baseline)";
      robust = true;
      protocol = Ba_baselines.Selective_repeat.protocol;
      default_modulus = twice_window;
    };
    {
      name = "stenning";
      aliases = [];
      summary = "Stenning timer-quarantined slot reuse (introduction's contrast)";
      robust = false;
      protocol = Ba_baselines.Stenning.protocol;
      default_modulus = twice_window;
    };
    {
      name = "alternating-bit";
      aliases = [ "abp" ];
      summary = "alternating-bit stop-and-wait (window 1)";
      robust = false;
      protocol = Ba_baselines.Alternating_bit.protocol;
      default_modulus = unbounded;
    };
  ]

let names = List.map (fun e -> e.name) all

let robust = List.filter (fun e -> e.robust) all

let find name =
  List.find_opt (fun e -> String.equal e.name name || List.mem name e.aliases) all

let parse name =
  match find name with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown protocol %S (expected one of: %s)" name
           (String.concat ", " names))

let config ?(window = 16) ?rto ?modulus ?ack_coalesce ?max_transit ?adaptive_rto entry () =
  let wire_modulus =
    match modulus with Some m -> Some m | None -> entry.default_modulus ~window
  in
  Ba_proto.Proto_config.make ~window ?rto ?wire_modulus:(Option.map Option.some wire_modulus)
    ?ack_coalesce ?max_transit ?adaptive_rto ()

let pp_list ppf () =
  List.iter
    (fun e ->
      Format.fprintf ppf "%-18s %s%s@." e.name e.summary
        (match e.aliases with
        | [] -> ""
        | a -> Printf.sprintf " (alias: %s)" (String.concat ", " a)))
    all
