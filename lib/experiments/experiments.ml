type table = {
  id : string;
  title : string;
  headers : string list;
  rows : string list list;
  notes : string list;
}

module Harness = Ba_proto.Harness
module Fabric = Ba_proto.Fabric
module Config = Ba_proto.Proto_config
module Dist = Ba_channel.Dist
module Explorer = Ba_verify.Explorer
module Kernel = Ba_model.Ba_kernel
module Pool = Ba_parallel.Pool

let fmt = Ba_util.Table.fmt_float
let pct x = Printf.sprintf "%.0f%%" (100. *. x)

(* Every experiment below is a grid of independent simulations (each
   builds its own engine from its own seed), so each table farms its
   cells to a domain pool. Pool.map_chunks batches neighbouring cells
   into one queue entry each and collects in input order, making the
   rendered table identical at any [jobs]; [jobs = 1] (the default) runs
   inline with no domains spawned. *)
let pmap ~jobs f cells = Pool.map_chunks ~jobs f cells

(* Regroup a flattened row-major cell list back into rows of [n]. *)
let chunk n xs =
  let rows, last =
    List.fold_left
      (fun (rows, cur) x ->
        let cur = x :: cur in
        if List.length cur = n then (List.rev cur :: rows, []) else (rows, cur))
      ([], []) xs
  in
  List.rev (match last with [] -> rows | _ -> List.rev last :: rows)

(* Averaged harness runs over a seed list. *)
type avg = {
  goodput : float;
  ticks : float;
  acks_per_msg : float;
  ack_bytes_per_byte : float;
  retx_per_msg : float;
  reorder_frac : float;
  all_correct : bool;
}

let average ?(payload_size = 32) ?(jobs = 1) ~seeds ~messages ~config ~loss ~delay proto =
  (* The multi-seed replicate loop: one engine per seed, so replicates
     parallelise like any other grid. *)
  let runs =
    pmap ~jobs
      (fun seed ->
        Harness.run proto ~seed ~messages ~payload_size ~config ~data_loss:loss ~ack_loss:loss
          ~data_delay:delay ~ack_delay:delay ())
      seeds
  in
  let n = float_of_int (List.length runs) in
  let mean f = List.fold_left (fun acc r -> acc +. f r) 0. runs /. n in
  {
    goodput = mean (fun r -> r.Harness.goodput);
    ticks = mean (fun r -> float_of_int r.Harness.ticks);
    acks_per_msg =
      mean (fun r -> float_of_int r.Harness.acks_sent /. float_of_int (max 1 r.Harness.delivered));
    ack_bytes_per_byte = mean (fun r -> r.Harness.ack_overhead);
    retx_per_msg =
      mean (fun r ->
          float_of_int r.Harness.retransmissions /. float_of_int (max 1 r.Harness.delivered));
    reorder_frac =
      mean (fun r ->
          float_of_int r.Harness.data_reordered /. float_of_int (max 1 r.Harness.data_sent));
    all_correct = List.for_all Harness.correct runs;
  }

(* ------------------------------------------------------------------ *)
(* T1: the introduction's scenario, replayed. *)

module Gbn_intro = Ba_model.Gbn_bounded_spec.Make (struct
  let w = 2
  let n = 3
  let limit = 6
end)

module Gbn_scenario = Ba_verify.Scenario.Make (Gbn_intro)

(* Section II's parameters, the base every block-ack row varies. *)
let section2 ~w ~limit = { Kernel.w; lead = None; n = None; limit; timer = Whole_channel }

module Ba_intro = (val Kernel.spec { (section2 ~w:2 ~limit:6) with n = Some 4 })

module Ba_scenario = Ba_verify.Scenario.Make (Ba_intro)

let t1_intro_scenario () =
  let gbn_script =
    [ "send(0"; "send(1"; "recv_data(0"; "recv_data(1"; "recv_ack(1"; "recv_ack(0" ]
  in
  let ba_script =
    [
      "send(0"; "send(1";
      "recv_data(w0"; "advance_vr(0"; "send_ack(0,0";
      "recv_data(w1"; "advance_vr(1"; "send_ack(1,1";
      "recv_ack(w1"; "recv_ack(w0";
    ]
  in
  let describe name outcome steps =
    match outcome.Ba_verify.Scenario.first_violation with
    | Some (step, msg) -> [ name; string_of_int steps; "VIOLATED at step " ^ string_of_int step; msg ]
    | None -> [ name; string_of_int steps; "safe"; "sender waits for the missing block ack" ]
  in
  let gbn = Gbn_scenario.replay gbn_script in
  let ba = Ba_scenario.replay ba_script in
  {
    id = "T1";
    title = "Intro scenario: reordered acknowledgments with bounded sequence numbers";
    headers = [ "protocol"; "steps"; "outcome"; "detail" ];
    rows =
      [
        describe "go-back-N (w=2, n=3, cumulative acks)" gbn (List.length gbn.Ba_verify.Scenario.steps);
        describe "block ack (w=2, n=2w=4)" ba (List.length ba.Ba_verify.Scenario.steps);
      ];
    notes =
      [
        "Same interleaving: a window is sent, delivered, and its two acks arrive reversed.";
        "Expected: go-back-N decodes the stale cumulative ack as recent and slides its \
         window past data the receiver never accepted; block acknowledgment simply waits.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* T2: exhaustive verification of the specs. *)

let t2_verdict ~expect_ok (r : Explorer.result) =
  match (expect_ok, r.violation) with
  | true, None when r.capped -> "CAPPED"
  | true, None | false, Some _ -> "as proven"
  | true, Some _ | false, None -> "UNEXPECTED"

let t2_verification ?(jobs = 1) ~quick () =
  let lim_small = if quick then 3 else 4 in
  let entries =
    [
      ("II  (w=1)", Kernel.spec (section2 ~w:1 ~limit:(lim_small + 1)), true);
      ("II  (w=2)", Kernel.spec (section2 ~w:2 ~limit:lim_small), true);
      ("IV  (w=2)", Kernel.spec { (section2 ~w:2 ~limit:lim_small) with timer = Per_message }, true);
      ("V   (w=2, n=2w=4)", Kernel.spec { (section2 ~w:2 ~limit:lim_small) with n = Some 4 }, true);
      ("V   (w=2, n=3w=6)", Kernel.spec { (section2 ~w:2 ~limit:lim_small) with n = Some 6 }, true);
      ("V   (w=2, n=2w-1=3)", Kernel.spec { (section2 ~w:2 ~limit:6) with n = Some 3 }, false);
      ("Vb  (w=2, bounded storage)", Ba_model.Ba_spec_bounded.default ~w:2 ~limit:lim_small (), true);
      ( "VI  (w=2, lead=4 slot reuse)",
        Kernel.spec
          { (section2 ~w:2 ~limit:(lim_small + 1)) with
            lead = Some 4; n = Some 8; timer = Per_message },
        true );
      ("GBN (w=2, n=3)", Ba_model.Gbn_bounded_spec.default ~w:2 ~limit:6 (), false);
    ]
  in
  let entries =
    if quick then entries
    else entries @ [ ("II  (w=3)", Kernel.spec (section2 ~w:3 ~limit:5), true) ]
  in
  let rows =
    pmap ~jobs
      (fun (name, spec, expect_ok) ->
        let r = Explorer.run_spec spec in
        let invariant =
          match r.Explorer.violation with None -> "HOLDS" | Some (msg, _) -> "VIOLATED: " ^ msg
        in
        let progress =
          match r.Explorer.live with
          | Some true -> "live"
          | Some false -> "NOT live"
          | None -> "-"
        in
        [
          name;
          string_of_int r.Explorer.state_count;
          string_of_int r.Explorer.transition_count;
          invariant;
          progress;
          t2_verdict ~expect_ok r;
        ])
      entries
  in
  {
    id = "T2";
    title = "Exhaustive verification (assertions 6-8, deadlock freedom, loss-free progress)";
    headers = [ "spec (section)"; "states"; "transitions"; "invariant"; "progress"; "vs paper" ];
    rows;
    notes =
      [
        "Sections II, IV and V verify exactly as the paper proves; n = 2w - 1 yields a \
         reconstruction counterexample; bounded go-back-N violates safety under reorder.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* F1: goodput vs loss (near-FIFO links for a fair classic comparison). *)

let f1_goodput_vs_loss ?(jobs = 1) ~quick () =
  let messages = if quick then 400 else 2000 in
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let delay = Dist.Constant 50 in
  let losses = [ 0.0; 0.01; 0.02; 0.05; 0.1; 0.2 ] in
  let ba_config = Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:50 () in
  let unbounded = Config.make ~window:16 ~rto:300 () in
  let protos =
    [
      ("blockack-simple", Blockack.Protocols.simple, ba_config);
      ("blockack-multi", Blockack.Protocols.multi, ba_config);
      ("go-back-N", Ba_baselines.Go_back_n.protocol, unbounded);
      ("selective-repeat", Ba_baselines.Selective_repeat.protocol, ba_config);
    ]
  in
  let cells =
    pmap ~jobs
      (fun (loss, (_, proto, config)) ->
        let a = average ~seeds ~messages ~config ~loss ~delay proto in
        fmt a.goodput ^ if a.all_correct then "" else "!")
      (List.concat_map (fun loss -> List.map (fun p -> (loss, p)) protos) losses)
  in
  let rows = List.map2 (fun loss cells -> pct loss :: cells) losses (chunk (List.length protos) cells) in
  {
    id = "F1";
    title = "Goodput (messages per 1000 ticks) vs loss rate — w=16, near-FIFO links";
    headers = "loss" :: List.map (fun (n, _, _) -> n) protos;
    rows;
    notes =
      [
        "Paper claim: block acknowledgment keeps the throughput of the classic window \
         protocol while also tolerating loss and reorder.";
        "Expected shape: at 0% everyone is window-limited and equal; as loss grows, \
         go-back-N pays a whole-window retransmission per loss and falls behind, \
         blockack-multi tracks selective-repeat, blockack-simple sits between.";
        "A trailing '!' marks a run that was not perfectly correct (none expected here).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* F2: goodput vs window size. *)

let f2_goodput_vs_window ?(jobs = 1) ~quick () =
  let messages = if quick then 400 else 2000 in
  let seeds = if quick then [ 1 ] else [ 1; 2 ] in
  let delay = Dist.Constant 50 in
  let loss = 0.02 in
  let windows = [ 1; 2; 4; 8; 16; 32; 64 ] in
  let rows =
    pmap ~jobs
      (fun w ->
        let ba_config = Config.make ~window:w ~rto:300 ~wire_modulus:(Some (2 * w)) ~max_transit:50 () in
        let gbn_config = Config.make ~window:w ~rto:300 () in
        let ba = average ~seeds ~messages ~config:ba_config ~loss ~delay Blockack.Protocols.multi in
        let gbn =
          average ~seeds ~messages ~config:gbn_config ~loss ~delay Ba_baselines.Go_back_n.protocol
        in
        [ string_of_int w; fmt ba.goodput; fmt gbn.goodput; fmt (ba.goodput /. gbn.goodput) ])
      windows
  in
  {
    id = "F2";
    title = "Goodput vs window size — 2% loss, near-FIFO links, n = 2w";
    headers = [ "window"; "blockack-multi"; "go-back-N"; "ratio" ];
    rows;
    notes =
      [
        "Expected shape: both scale with the window until the loss-recovery cost \
         dominates; go-back-N's whole-window retransmissions make its large-window \
         gains evaporate, so the ratio grows with w.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* F3: recovery time after a lost block acknowledgment. *)

let f3_recovery_time ?(jobs = 1) ~quick () =
  let blocks = if quick then [ 1; 4; 8 ] else [ 1; 2; 4; 8; 16 ] in
  let rto = 300 in
  let run_with_kill proto b =
    (* Transfer exactly b messages; they are emitted in one burst over a
       constant-delay link and coalesce into a single block ack, which we
       kill. Completion time then measures pure recovery. *)
    let config =
      Config.make ~window:16 ~rto ~wire_modulus:(Some 32) ~ack_coalesce:20 ~max_transit:50 ()
    in
    let killed = ref false in
    let r =
      Harness.run proto ~seed:7 ~messages:b ~config ~data_delay:(Dist.Constant 50)
        ~ack_delay:(Dist.Constant 50)
        ~on_setup:(fun cell ->
          Ba_channel.Link.set_fault (Ba_proto.Cell.ack_link cell) (fun (_ : Ba_proto.Wire.ack) ->
              if !killed then Ba_channel.Link.Deliver
              else begin
                killed := true;
                Ba_channel.Link.Drop
              end))
        ()
    in
    assert r.Harness.completed;
    r.Harness.ticks
  in
  let rows =
    pmap ~jobs
      (fun b ->
        let simple = run_with_kill Blockack.Protocols.simple b in
        let multi = run_with_kill Blockack.Protocols.multi b in
        [
          string_of_int b;
          string_of_int simple;
          string_of_int multi;
          fmt ~decimals:1 (float_of_int simple /. float_of_int (max 1 multi));
          Printf.sprintf "~%d" ((b * rto) + 170);
          Printf.sprintf "~%d" (rto + 170);
        ])
      blocks
  in
  {
    id = "F3";
    title =
      "Recovery after losing the block ack covering b messages (ticks to completion; rto=300)";
    headers =
      [ "block b"; "simple (II)"; "multi (IV)"; "simple/multi"; "expected II"; "expected IV" ];
    rows;
    notes =
      [
        "Paper, Section IV: with the simple timeout the sender recovers one message per \
         timeout period (~b*rto); per-message timers resend the whole block back-to-back \
         (~rto + round trip) regardless of b.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* F4: reorder tolerance — goodput vs delay jitter. *)

let f4_reorder_tolerance ?(jobs = 1) ~quick () =
  let messages = if quick then 300 else 1500 in
  let seeds = if quick then [ 1 ] else [ 1; 2 ] in
  let loss = 0.01 in
  let jitters = [ 0; 25; 50; 100; 200 ] in
  let rows =
    pmap ~jobs
      (fun j ->
        let delay = if j = 0 then Dist.Constant 50 else Dist.Uniform (50, 50 + j) in
        (* rto must stay sound as max delay grows. *)
        let rto = (2 * (50 + j)) + 100 in
        let ba_config = Config.make ~window:16 ~rto ~wire_modulus:(Some 32) ~max_transit:(50 + j) () in
        let unbounded = Config.make ~window:16 ~rto () in
        let ba = average ~seeds ~messages ~config:ba_config ~loss ~delay Blockack.Protocols.multi in
        let gbn =
          average ~seeds ~messages ~config:unbounded ~loss ~delay Ba_baselines.Go_back_n.protocol
        in
        let sr =
          average ~seeds ~messages ~config:ba_config ~loss ~delay
            Ba_baselines.Selective_repeat.protocol
        in
        [
          string_of_int j;
          pct ba.reorder_frac;
          fmt ba.goodput ^ (if ba.all_correct then "" else "!");
          fmt sr.goodput ^ (if sr.all_correct then "" else "!");
          fmt gbn.goodput ^ (if gbn.all_correct then "" else "!");
          fmt gbn.retx_per_msg;
        ])
      jitters
  in
  {
    id = "F4";
    title = "Tolerating reorder: goodput vs delay jitter (base delay 50, 1% loss, w=16)";
    headers =
      [
        "jitter";
        "wire reorder";
        "blockack-multi";
        "selective-repeat";
        "go-back-N";
        "gbn retx/msg";
      ];
    rows;
    notes =
      [
        "Paper claim: the protocol tolerates message disorder. Expected shape: blockack \
         and selective-repeat degrade gently with jitter; in-order go-back-N discards \
         every overtaken message, its retransmissions explode and goodput collapses.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* T3: acknowledgment economy. *)

let t3_ack_overhead ?(jobs = 1) ~quick () =
  let messages = if quick then 500 else 2000 in
  let seeds = if quick then [ 1 ] else [ 1; 2 ] in
  let delay = Dist.Constant 50 in
  let ba_config = Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:50 () in
  let ba_coalesced =
    Config.make ~window:16 ~rto:400 ~wire_modulus:(Some 32) ~ack_coalesce:30 ~max_transit:50 ()
  in
  let unbounded = Config.make ~window:16 ~rto:300 () in
  let protos =
    [
      ("blockack", Blockack.Protocols.simple, ba_config);
      ("blockack+coalesce30", Blockack.Protocols.simple, ba_coalesced);
      ("go-back-N", Ba_baselines.Go_back_n.protocol, unbounded);
      ("selective-repeat", Ba_baselines.Selective_repeat.protocol, ba_config);
    ]
  in
  let rows =
    pmap ~jobs
      (fun (loss, (name, proto, config)) ->
        let a = average ~seeds ~messages ~config ~loss ~delay proto in
        [
          pct loss;
          name;
          fmt a.acks_per_msg;
          fmt ~decimals:4 a.ack_bytes_per_byte;
          fmt a.retx_per_msg;
        ])
      (List.concat_map (fun loss -> List.map (fun p -> (loss, p)) protos) [ 0.0; 0.05 ])
  in
  {
    id = "T3";
    title = "Acknowledgment economy (32-byte payloads; block acks are 8B, single acks 4B)";
    headers = [ "loss"; "protocol"; "acks/msg"; "ack bytes/payload byte"; "retx/msg" ];
    rows;
    notes =
      [
        "Paper, Section VI: a block ack acknowledges many messages for \"the small added \
         expense\" of a second number. Selective repeat must ack every message; block \
         acknowledgment amortises, especially with coalescing.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* T4: the Stenning real-time constraint vs domain size. *)

let t4_stenning_domain ?(jobs = 1) ~quick () =
  let messages = if quick then 200 else 600 in
  let seeds = [ 1 ] in
  let delay = Dist.Constant 50 in
  let loss = 0.01 in
  let gap = 600 in
  let domains = [ 4; 8; 16; 32; 64 ] in
  let rows =
    pmap ~jobs
      (fun n ->
        let w = n / 2 in
        let config = Config.make ~window:w ~rto:300 ~wire_modulus:(Some n) ~stenning_gap:gap () in
        let st = average ~seeds ~messages ~config ~loss ~delay Ba_baselines.Stenning.protocol in
        let ba_config = Config.make ~window:w ~rto:300 ~wire_modulus:(Some n) ~max_transit:50 () in
        let ba = average ~seeds ~messages ~config:ba_config ~loss ~delay Blockack.Protocols.multi in
        [
          string_of_int n;
          string_of_int w;
          fmt st.goodput;
          fmt (float_of_int n /. float_of_int gap *. 1000.);
          fmt ba.goodput;
          fmt (ba.goodput /. st.goodput);
        ])
      domains
  in
  {
    id = "T4";
    title =
      Printf.sprintf
        "Timer-based protocols vs domain size (reuse quarantine %d ticks, 1%% loss)" gap;
    headers =
      [ "domain n"; "window"; "stenning goodput"; "stenning cap (n/gap)"; "blockack"; "ratio" ];
    rows;
    notes =
      [
        "Paper, introduction: the Stenning/Lam-Shankar send constraint \"may adversely \
         affect the rate of data transfer\" when the sequence-number domain is small. \
         Steady-state Stenning throughput is capped at n/gap; block acknowledgment with \
         the same n and window is only window/RTT-limited.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* F5: the Section VI slot-reuse extension. *)

let f5_slot_reuse ?(jobs = 1) ~quick () =
  let messages = if quick then 500 else 2000 in
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let delay = Dist.Uniform (40, 60) in
  let losses = [ 0.0; 0.02; 0.05; 0.1; 0.2 ] in
  let plain_config = Config.make ~window:8 ~rto:300 ~wire_modulus:(Some 16) ~max_transit:60 () in
  let reuse_config = Config.make ~window:8 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:60 () in
  let reuse_proto = Blockack.Protocols.reuse ~lead_factor:2 () in
  let rows =
    pmap ~jobs
      (fun loss ->
        let plain =
          average ~seeds ~messages ~config:plain_config ~loss ~delay Blockack.Protocols.multi
        in
        let reuse = average ~seeds ~messages ~config:reuse_config ~loss ~delay reuse_proto in
        [
          pct loss;
          fmt plain.goodput;
          fmt reuse.goodput ^ (if reuse.all_correct then "" else "!");
          Printf.sprintf "%+.0f%%" (100. *. ((reuse.goodput /. plain.goodput) -. 1.));
        ])
      losses
  in
  {
    id = "F5";
    title = "Section VI slot reuse: w=8 unacked budget, lead 16, n=32 vs plain w=8, n=16";
    headers = [ "loss"; "plain blockack-multi"; "slot reuse"; "gain" ];
    rows;
    notes =
      [
        "Paper, Section VI: reusing acknowledged positions before earlier messages are \
         acknowledged trades complexity (wider buffers, n = 2*lead) for throughput. \
         Expected shape: no gain at 0% loss (window never blocks on a hole), growing \
         gain with loss as head-of-line stalls disappear.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* F6: per-message delivery latency percentiles per protocol —
   head-of-line blocking under loss made visible. Derived claim: the
   in-order delivery all the paper's protocols require makes recovery
   speed visible in the tail. *)

let f6_latency ?(jobs = 1) ~quick () =
  let messages = if quick then 500 else 2000 in
  let delay = Dist.Constant 50 in
  let ba_config = Config.make ~window:16 ~rto:300 ~wire_modulus:(Some 32) ~max_transit:50 () in
  let unbounded = Config.make ~window:16 ~rto:300 () in
  let protos =
    [
      ("blockack-simple", Blockack.Protocols.simple, ba_config);
      ("blockack-multi", Blockack.Protocols.multi, ba_config);
      ("go-back-N", Ba_baselines.Go_back_n.protocol, unbounded);
      ("selective-repeat", Ba_baselines.Selective_repeat.protocol, ba_config);
    ]
  in
  let rows =
    pmap ~jobs
      (fun (loss, (name, proto, config)) ->
        let r =
          Harness.run proto ~seed:17 ~messages ~config ~data_loss:loss ~ack_loss:loss
            ~data_delay:delay ~ack_delay:delay ()
        in
        match r.Harness.latency with
        | Some l ->
            [
              pct loss;
              name;
              fmt ~decimals:0 l.Ba_util.Stats.p50;
              fmt ~decimals:0 l.Ba_util.Stats.p90;
              fmt ~decimals:0 l.Ba_util.Stats.p99;
              fmt ~decimals:0 l.Ba_util.Stats.max;
            ]
        | None -> [ pct loss; name; "-"; "-"; "-"; "-" ])
      (List.concat_map (fun loss -> List.map (fun p -> (loss, p)) protos) [ 0.0; 0.05 ])
  in
  {
    id = "F6";
    title = "Delivery latency in ticks (window entry to in-order delivery; RTT = 100)";
    headers = [ "loss"; "protocol"; "p50"; "p90"; "p99"; "max" ];
    rows;
    notes =
      [
        "In-order delivery means one lost message delays everything behind it \
         (head-of-line blocking) until recovery. Expected shape: identical ~RTT/2+delay \
         medians at 0% loss; under loss the p99 tail is one timeout (~rto) for \
         blockack-multi and selective-repeat, several timeouts for blockack-simple \
         (serial recovery), and inflated for go-back-N (whole-window resends).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* T5 (derived): acknowledgment frames saved by piggybacking block acks
   on reverse-direction data in a duplex session ({!Blockack.Duplex}). *)

let t5_piggyback ?(jobs = 1) ~quick () =
  let messages = if quick then 300 else 1000 in
  let pace = 20 in
  let run ~hold ~loss =
    let d =
      Blockack.Duplex.create ~seed:6 ~piggyback_hold:hold ~loss
        ~on_receive_a:(fun _ -> ())
        ~on_receive_b:(fun _ -> ())
        ()
    in
    let engine = Blockack.Duplex.engine d in
    for i = 1 to messages do
      Ba_sim.Engine.schedule engine ~delay:(i * pace) (fun () ->
          Blockack.Duplex.send (Blockack.Duplex.a d) (Printf.sprintf "a%d" i);
          Blockack.Duplex.send (Blockack.Duplex.b d) (Printf.sprintf "b%d" i))
    done;
    Blockack.Duplex.run d;
    let both = Blockack.Duplex.counters (Blockack.Duplex.a d) in
    Ba_util.Counters.merge_into both (Blockack.Duplex.counters (Blockack.Duplex.b d));
    let tot = Ba_util.Counters.get both in
    let completed = Blockack.Duplex.idle d in
    [
      string_of_int hold;
      pct loss;
      string_of_int (tot Data_sent);
      string_of_int (tot Acks_sent);
      string_of_int (tot Piggybacked_acks);
      (string_of_int (tot Data_sent + tot Acks_sent) ^ if completed then "" else "!");
      Printf.sprintf "%.1f%%"
        (100. *. float_of_int (tot Acks_sent) /. float_of_int (max 1 (tot Data_sent)));
    ]
  in
  let rows =
    pmap ~jobs
      (fun (loss, hold) -> run ~hold ~loss)
      (List.concat_map (fun loss -> List.map (fun hold -> (loss, hold)) [ 0; 15; 25; 60 ]) [ 0.0; 0.05 ])
  in
  {
    id = "T5";
    title =
      Printf.sprintf
        "Piggybacked block acks in a duplex conversation (%d msgs each way, one every %d \
         ticks)" messages pace;
    headers =
      [ "hold"; "loss"; "data frames"; "pure-ack frames"; "piggybacked"; "total frames";
        "ack-frame overhead" ];
    rows;
    notes =
      [
        "Deployed window protocols carry acknowledgments on reverse data. Holding an \
         ack briefly (>= the app's pacing) lets nearly every block ack ride for free; \
         hold=0 degenerates to a dedicated ack channel. Adjacent pending blocks merge \
         into wider blocks — the block-ack property doing the coalescing.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* A1 (extension ablation): fixed vs Jacobson/Karels adaptive timeout
   under a mis-estimated round trip. Not from the paper; quantifies its
   "accurate timeout mechanisms" assumption (Section VI). *)

let a1_adaptive_rto ?(jobs = 1) ~quick () =
  let messages = if quick then 400 else 1500 in
  let seeds = if quick then [ 1 ] else [ 1; 2; 3 ] in
  let delay = Dist.Uniform (40, 100) in
  let loss = 0.05 in
  let run_fixed rto =
    let config = Config.make ~window:16 ~rto () in
    average ~seeds ~messages ~config ~loss ~delay Blockack.Protocols.multi
  in
  let run_adaptive initial =
    let config = Config.make ~window:16 ~rto:initial ~adaptive_rto:true () in
    average ~seeds ~messages ~config ~loss ~delay Blockack.Protocols.multi
  in
  let describe name a =
    [ name; fmt a.goodput ^ (if a.all_correct then "" else "!"); fmt a.retx_per_msg ]
  in
  let rows =
    pmap ~jobs
      (function
        | `Fixed rto -> describe (Printf.sprintf "fixed rto=%d" rto) (run_fixed rto)
        | `Adaptive initial ->
            describe (Printf.sprintf "adaptive (initial %d)" initial) (run_adaptive initial))
      (List.map (fun rto -> `Fixed rto) [ 150; 300; 600; 1500 ]
      @ List.map (fun initial -> `Adaptive initial) [ 300; 1500 ])
  in
  {
    id = "A1";
    title =
      "Extension ablation: fixed vs adaptive timeout (delay U[40,100], 5% loss, unbounded \
       wire numbers)";
    headers = [ "timeout policy"; "goodput"; "retx/msg" ];
    rows;
    notes =
      [
        "The paper assumes an accurately chosen timeout (rto > 2*max delay = 200 here). \
         An under-estimated fixed rto retransmits spuriously; an over-estimated one \
         recovers slowly. The Jacobson/Karels estimator (Karn's rule, exponential \
         backoff) converges to the real round trip from either starting point.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* A2 (extension ablation): Section VI's "variable size windows" remark
   — fixed vs AIMD windows through a congestible bottleneck queue. *)

let a2_dynamic_window ?(jobs = 1) ~quick () =
  let messages = if quick then 600 else 2000 in
  let delay = Dist.Constant 50 in
  let bottleneck = (10, 10) in
  (* service: 1 msg / 10 ticks (100 msgs per kilotick), FIFO queue of 10 *)
  let run ~dynamic w =
    let config = Config.make ~window:w ~rto:400 ~dynamic_window:dynamic () in
    Harness.run Blockack.Protocols.multi ~seed:3 ~messages ~config ~data_delay:delay
      ~ack_delay:delay ~data_bottleneck:bottleneck
      ~deadline:(messages * 10_000) ()
  in
  let describe name (r : Harness.result) =
    [
      name;
      (if Harness.correct r then fmt r.Harness.goodput else "WEDGED");
      string_of_int r.Harness.retransmissions;
      string_of_int r.Harness.data_queue_dropped;
    ]
  in
  let rows =
    pmap ~jobs
      (function
        | `Fixed w -> describe (Printf.sprintf "fixed w=%d" w) (run ~dynamic:false w)
        | `Aimd -> describe "AIMD (max 64)" (run ~dynamic:true 64))
      (List.map (fun w -> `Fixed w) [ 4; 8; 16; 32 ] @ [ `Aimd ])
  in
  {
    id = "A2";
    title =
      "Section VI variable windows: fixed vs AIMD window over a bottleneck queue (100 msgs/kilotick, 10-slot FIFO, tail drop)";
    headers = [ "window policy"; "goodput"; "retx"; "queue drops" ];
    rows;
    notes =
      [
        "With load-dependent loss, a fixed window beyond the bandwidth-delay product (~11 messages here) overflows the queue and retransmits. The w=32 row is a permanent livelock, not a congestion collapse: the frame the receiver needs next is retransmitted just behind a phase-locked burst of the frames held after it and is tail-dropped every round, while the link stays busy with copies the receiver already holds. The AIMD window (+1/RTT, halve on timeout) finds the operating point by itself — the paper's 'variable size windows' remark, quantified. Unbounded wire numbers (queueing extends message lifetime beyond what a mod-2w timeout bound can promise).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* A3 (extension ablation): two flows share the bottleneck; AIMD
   converges to an even split where oversized fixed windows fight. *)

let a3_fairness ?(jobs = 1) ~quick () =
  let messages = if quick then 400 else 1500 in
  (* Two block-ack flows in one fabric share its bottleneck data link
     and its ack link. The ack link has a constant delay, no loss and no
     queue, so sharing it moves no ack. We observe each flow's delivered
     count at the moment the first flow completes: a fair sharing policy
     keeps the ratio near 1. *)
  let run_pair ~dynamic ~w =
    let config = Config.make ~window:w ~rto:400 ~dynamic_window:dynamic () in
    let delivered = [| 0; 0 |] and created = ref 0 in
    let at_first_finish = ref None in
    (* Section IV's protocol counting each flow's deliveries; flows are
       numbered in creation order. It keeps its name, so both specs must
       carry this one module: the cell groups flows by name. *)
    let counted : Ba_proto.Protocol.t =
      (module struct
        include (val Blockack.Protocols.multi)

        let create_receiver engine config ~tx ~deliver =
          let flow = !created in
          incr created;
          create_receiver engine config ~tx ~deliver:(fun p ->
              delivered.(flow) <- delivered.(flow) + 1;
              if delivered.(flow) = messages && !at_first_finish = None then
                at_first_finish := Some (delivered.(0), delivered.(1));
              deliver p)
      end)
    in
    (* Every 500 ticks, stop once both flows have delivered everything,
       acknowledged or not: the stop sets the ticks column and bounds
       the retransmission column. The watch is armed from a tick-0
       event, which fires after both senders' first pumps, so it keeps
       its place among the tick-500 events. *)
    let finish_time = ref None and next_watch = ref 500 in
    let on_flows engine _ =
      let rec watch () =
        let now = Ba_sim.Engine.now engine in
        if delivered.(0) = messages && delivered.(1) = messages then begin
          finish_time := Some now;
          Ba_sim.Engine.stop engine
        end
        else begin
          next_watch := now + 500;
          Ba_sim.Engine.schedule engine ~delay:500 watch
        end
      in
      Ba_sim.Engine.schedule engine ~delay:0 (fun () ->
          Ba_sim.Engine.schedule engine ~delay:500 watch)
    in
    let spec = Fabric.spec ~config ~messages counted in
    let r =
      Fabric.run ~seed:5 ~data_delay:(Dist.Constant 50) ~ack_delay:(Dist.Constant 50)
        ~data_bottleneck:(10, 10) ~deadline:(messages * 10_000) ~on_flows [ spec; spec ]
    in
    let d0, d1 = Option.value ~default:(delivered.(0), delivered.(1)) !at_first_finish in
    (* The cell stops by itself once both flows are acked; the watch
       would have seen it at its next firing. *)
    let finish =
      match !finish_time with None when r.Fabric.completed -> Some !next_watch | f -> f
    in
    let retx = List.fold_left (fun a f -> a + f.Ba_proto.Flow.retransmissions) 0 r.flows in
    (d0, d1, finish, retx)
  in
  let describe name (d0, d1, finish, retx) =
    let share_ratio = float_of_int (min d0 d1) /. float_of_int (max 1 (max d0 d1)) in
    [
      name;
      string_of_int d0;
      string_of_int d1;
      fmt ~decimals:2 share_ratio;
      (match finish with Some t -> string_of_int t | None -> "WEDGED");
      string_of_int retx;
    ]
  in
  let rows =
    pmap ~jobs
      (fun (name, dynamic, w) -> describe name (run_pair ~dynamic ~w))
      [
        ("2 x fixed w=4", false, 4);
        ("2 x fixed w=8", false, 8);
        ("2 x fixed w=32", false, 32);
        ("2 x AIMD (max 64)", true, 64);
      ]
  in
  {
    id = "A3";
    title =
      "Two competing flows on one bottleneck (100 msgs/kilotick, 10-slot queue): share at \
       first finish";
    headers =
      [ "policy"; "flow A delivered"; "flow B delivered"; "min/max share"; "ticks"; "retx" ];
    rows;
    notes =
      [
        "Fairness view of A2: with AIMD both flows back off and converge to an even \
         split of the bottleneck; fixed windows beyond half the bandwidth-delay product \
         fight over the queue. At w=32 the full-size run stops delivering for good, a \
         livelock like A2's w=32 row rather than a collapse.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* C1: the chaos matrix — every protocol against every fault class. *)

module Chaos = Ba_verify.Chaos
module Soak = Ba_verify.Soak

(* Robustness matrix: block acknowledgment and the four baselines, each
   swept through every {!Ba_verify.Chaos} fault class (bursty loss,
   duplication, corruption, outages, reordering). Cells count safety
   violations and stuck runs; the robust protocols are expected to be
   clean everywhere, bounded go-back-N to break under reorder, and the
   unvalidated baselines to deliver corrupted payloads. *)
let c1_chaos_matrix ?(jobs = 1) ~quick () =
  let messages = if quick then 40 else 80 in
  let seeds = List.init (if quick then 5 else 15) (fun i -> i + 1) in
  (* The naive baselines keep their textbook configurations; the robust
     ones use the audited timing (see Chaos.robust_config). The
     alternating-bit protocol ignores the window entirely. *)
  let protos =
    [
      ("blockack-multi", Blockack.Protocols.multi, Chaos.robust_config);
      ("selective-repeat", Ba_baselines.Selective_repeat.protocol, Chaos.robust_config);
      ("go-back-N (w+1)", Ba_baselines.Go_back_n.protocol, Chaos.gbn_config);
      ("stenning", Ba_baselines.Stenning.protocol, Chaos.robust_config);
      ( "alternating-bit",
        Ba_baselines.Alternating_bit.protocol,
        Config.make ~window:1 ~rto:1000 ~max_transit:410 () );
    ]
  in
  (* Each campaign already fans its (fault, seed) cells out to [jobs]
     domains, so the protocols stay sequential here. *)
  let reports =
    List.map
      (fun (_, p, config) ->
        Chaos.run_campaign ~messages ~config ~seeds ~classes:Chaos.channel_classes ~jobs p)
      protos
  in
  let rows =
    List.map
      (fun fault ->
        Chaos.class_name fault
        :: List.map
             (fun (r : Chaos.report) ->
               match List.find_opt (fun c -> c.Chaos.fault = fault) r.Chaos.classes with
               | Some c -> Chaos.verdict c
               | None -> "-")
             reports)
      Chaos.channel_classes
  in
  {
    id = "C1";
    title =
      Printf.sprintf
        "Chaos matrix — %d seeds x %d msgs per cell: safety violations and stuck runs"
        (List.length seeds) messages;
    headers = "fault" :: List.map (fun (n, _, _) -> n) protos;
    rows;
    notes =
      [
        "Safety = never deliver a duplicate, out of order, or corrupted; stuck = failed \
         to finish once scheduled faults quiesced.";
        "Expected: blockack-multi and selective-repeat are 'ok' everywhere — the \
         set-channel proof does not cover duplication or corruption, but checksums plus \
         the 2w modulus make the implementation tolerate both.";
        "Expected: go-back-N's w+1 modulus breaks under reorder (the introduction's \
         scenario, found by sweep instead of by hand), and the unvalidated baselines \
         deliver corrupted payloads.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* C2: crash recovery — incarnation epochs vs the naive zeroed restart.
   The {!Ba_verify.Chaos.Crash} class (sender, receiver and staggered
   double crashes, seed-derived) against the block-ack senders with
   incarnation epochs on, plus the epoch-less "naive restart" negative
   control. Reports the safety/recovery verdict alongside the recovery
   bill: restarts, resync handshake frames, restart-to-recovery ticks
   and retransmitted bytes. *)

let c2_crash_recovery ?(jobs = 1) ~quick () =
  let messages = if quick then 40 else 80 in
  let seeds = List.init (if quick then 6 else 18) (fun i -> i + 1) in
  (* Same seed-derived crash schedules (sender / receiver / staggered
     double crashes) against three configurations: both block-ack
     senders with the epoch handshake, and the epoch-less restart as the
     negative control the handshake exists to beat. *)
  let configurations =
    [
      ("blockack-multi / epochs", Blockack.Protocols.multi, Chaos.robust_config);
      ("blockack-simple / epochs", Blockack.Protocols.simple, Chaos.robust_config);
      ("blockack-multi / naive restart", Blockack.Protocols.multi, Chaos.naive_restart_config);
    ]
  in
  let rows =
    List.map
      (fun (label, proto, config) ->
        let r = Chaos.run_campaign ~messages ~config ~seeds ~classes:[ Chaos.Crash ] ~jobs proto in
        let c = List.hd r.Chaos.classes in
        let recovery =
          match c.Chaos.recovery with
          | None -> [ "-"; "-"; "-"; "-" ]
          | Some rc ->
              [
                string_of_int rc.Chaos.restarts;
                string_of_int rc.Chaos.resync_rounds;
                Printf.sprintf "%.0f / %.0f" rc.Chaos.mean_resync_ticks rc.Chaos.max_resync_ticks;
                string_of_int rc.Chaos.retx_bytes;
              ]
        in
        (label :: string_of_int c.Chaos.runs :: Chaos.verdict c :: recovery))
      configurations
  in
  {
    id = "C2";
    title =
      Printf.sprintf
        "Crash recovery — %d seed-derived crash schedules x %d msgs: epochs vs naive restart"
        (List.length seeds) messages;
    headers =
      [
        "configuration"; "runs"; "verdict"; "restarts"; "resync frames"; "resync ticks mean/max";
        "retx bytes";
      ];
    rows;
    notes =
      [
        "Each seed crashes the sender, the receiver, or both (staggered), wiping all \
         volatile state; stable storage keeps only the incarnation epoch and the \
         receiver's delivery count.";
        "With epochs the restarted endpoint bumps its incarnation, rejects \
         old-incarnation frames, and replays the REQ/POS/FIN resync handshake: every \
         run is safe and completes, at the retransmission cost shown.";
        "The naive restart comes back zeroed into the same sequence space: the \
         receiver re-accepts old retransmissions as new data (duplicate delivery) or \
         the window arithmetic wedges — exactly the failure the explorer's crash model \
         exhibits as a counterexample.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* S1: scaling the fabric — N connections over one shared bottleneck. *)

module Registry = Ba_registry.Registry

let s1_scaling ?(jobs = 1) ~quick () =
  let counts = if quick then [ 1; 16; 64 ] else [ 1; 4; 16; 64; 256 ] in
  let messages = if quick then 10 else 30 in
  let svc, cap = (2, 128) in
  (* 1 message per 2 ticks of service = 500 msgs/kilotick aggregate cap. *)
  let delay = 50 in
  let rto = (2 * delay) + (svc * cap) + 100 in
  let protos =
    List.filter_map Registry.find [ "blockack-multi"; "go-back-n"; "selective-repeat" ]
  in
  let median = function
    | [] -> nan
    | xs ->
        let sorted = List.sort compare xs in
        List.nth sorted (List.length sorted / 2)
  in
  let rows =
    pmap ~jobs
      (fun (n, (e : Registry.entry)) ->
        let config = Registry.config ~window:8 ~rto e () in
        let specs = List.init n (fun _ -> Fabric.spec ~config ~messages e.Registry.protocol) in
        let r =
          Fabric.run ~seed:11 ~data_delay:(Dist.Constant delay)
            ~ack_delay:(Dist.Constant delay) ~data_bottleneck:(svc, cap) specs
        in
        let finished =
          List.length (List.filter (fun f -> f.Harness.completed) r.Fabric.flows)
        in
        let p50s, p99s =
          List.filter_map (fun f -> f.Harness.latency) r.Fabric.flows
          |> List.map (fun l -> (l.Ba_util.Stats.p50, l.Ba_util.Stats.p99))
          |> List.split
        in
        [
          string_of_int n;
          e.Registry.name;
          Printf.sprintf "%d/%d" finished n;
          fmt r.Fabric.aggregate_goodput;
          fmt ~decimals:0 (median p50s);
          fmt ~decimals:0 (List.fold_left max 0. p99s);
          fmt ~decimals:3 r.Fabric.fairness;
          string_of_int (Ba_util.Counters.get r.Fabric.data_link Queue_dropped);
        ])
      (List.concat_map (fun n -> List.map (fun e -> (n, e)) protos) counts)
  in
  {
    id = "S1";
    title =
      Printf.sprintf
        "Scaling the fabric: N flows of %d msgs share one bottleneck (1 msg per %d ticks, \
         %d-slot queue, w=8)" messages svc cap;
    headers =
      [ "conns"; "protocol"; "done"; "agg goodput"; "p50 (med)"; "p99 (max)"; "jain"; "queue drops" ];
    rows;
    notes =
      [
        "Aggregate goodput is capped by the shared link's service rate (500 msgs per \
         kilotick here). Expected shape: below saturation every protocol scales linearly \
         and shares fairly; past it (64+ flows want far more than the queue holds), \
         tail-drop loss governs and Jain's index falls as flows finish serially.";
        "Per-flow percentiles pool as the median of per-flow p50s and the worst per-flow \
         p99; a finished flow is measured over its own lifetime.";
        "This bottleneck drops from a FIFO tail, so it loses bursts but never reorders — \
         the one regime where go-back-N shines: a whole-window resend is exactly what a \
         tail-dropped burst needs, while the selective protocols re-offer each loss \
         individually into a still-full queue.";
        "Same engine, links and per-flow harness accounting as the single-connection \
         experiments — only the multiplexing is new (see Ba_proto.Fabric).";
      ];
  }

(* ------------------------------------------------------------------ *)
(* S3: churn soak — a churning fabric under composed storms:
   seed-derived arrival/departure schedules ({!Ba_proto.Fabric.churn})
   with a memory budget below the lifetime sum of reservations, so
   admission must reclaim departed flows' budget for the returning
   cohort. Reports pre- vs post-churn goodput and the peak-memory/budget
   margin per seed. *)

let s3_churn_soak ?(jobs = 1) ~quick () =
  let base = 2 in
  let churners = if quick then 1 else 2 in
  let messages = if quick then 20 else 40 in
  let seeds = List.init (if quick then 3 else 6) (fun i -> 42 + i) in
  let rows =
    pmap ~jobs
      (fun seed ->
        let specs =
          Fabric.churn ~base ~churners ~messages ~config:Chaos.robust_config ~seed
            Blockack.Protocols.multi
        in
        let rd = Soak.round ~fault:Chaos.Storm ~base ~churn_from:base ~seed specs in
        let r = rd.Soak.result in
        let mean = function
          | [] -> nan
          | gs -> List.fold_left ( +. ) 0. gs /. float_of_int (List.length gs)
        in
        let pre = mean rd.Soak.base_goodput and post = mean rd.Soak.returner_goodput in
        [
          string_of_int seed;
          Printf.sprintf "%d/%d" (List.length r.Fabric.flows) (List.length specs);
          string_of_int (Ba_util.Counters.get r.Fabric.counters Departed);
          (if r.Fabric.completed then "yes" else "NO");
          fmt pre;
          fmt post;
          (if Float.is_nan post || Float.is_nan pre then "-" else fmt ~decimals:2 (post /. pre));
          string_of_int r.Fabric.mem_peak_bytes ^ "/" ^ string_of_int rd.Soak.budget;
          string_of_int (Ba_util.Counters.get r.Fabric.counters Watchdog_resyncs);
        ])
      seeds
  in
  {
    id = "S3";
    title =
      Printf.sprintf
        "Churn soak under storms: %d base + %d departing/returning pairs, budget at 3/4 of \
         the lifetime sum" base churners;
    headers =
      [
        "seed"; "admitted"; "departed"; "done"; "pre-churn goodput"; "post-churn goodput";
        "post/pre"; "mem peak/budget"; "resyncs";
      ];
    rows;
    notes =
      [
        "Every flow is admitted even though the budget is below the lifetime sum of \
         reservations: departures release their reservation, and admission reasons about \
         peak concurrent cost over the [start_at, stop_at) intervals.";
        "Post-churn goodput is the returning cohort's mean — flows that arrive after a \
         departure, live through the tail of the storm, and run to completion. Expected \
         shape: post/pre stays within the soak harness's epsilon floor (>= 0.5), often \
         above 1 when the returners land after the storm has quiesced.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* S4: the sharded fabric's scaling curve — S1 carried two decades
   further: 1k -> 100k flows (smaller when [quick]) through the
   cell-partitioned fabric ({!Ba_proto.Shard}), the shared bottleneck
   realised as per-cell capacity leases reconciled at epoch barriers.
   Only deterministic columns (delivered, completion, ticks, goodput,
   lease counters); the machine-dependent flows/sec and bytes-per-flow
   are [ba_net --scale]'s stderr [scale-perf:] line and [ba_bench]'s
   [shard-100k] workload. *)

let s4_sharded_scale ?(jobs = 1) ~quick () =
  let counts = if quick then [ 200; 1_000 ] else [ 1_000; 10_000; 100_000 ] in
  let messages = 2 in
  let e =
    match Registry.find "blockack-multi" with Some e -> e | None -> assert false
  in
  (* The lease queue scales with the offered load (4 slots per flow) and
     the timeout sits above the full drain time, so the curve measures
     the sharded engine, not a retransmission storm. Every column is a
     pure function of the model parameters — byte-identical at any
     [jobs] (and any shard count), which test_shard proves wholesale. *)
  let config = Registry.config ~window:4 ~rto:500_000 e () in
  let rows =
    List.map
      (fun flows ->
        let specs =
          List.init flows (fun _ -> Fabric.spec ~config ~messages e.Registry.protocol)
        in
        let r = Ba_proto.Shard.run ~seed:11 ~jobs ~capacity:(1, 4 * flows) specs in
        let n = Ba_util.Counters.get r.Ba_proto.Shard.counters in
        [
          string_of_int flows;
          string_of_int r.Ba_proto.Shard.cells;
          Printf.sprintf "%d/%d" (n Delivered) (n Messages);
          Printf.sprintf "%d/%d" (n Completed_flows) flows;
          string_of_int r.Ba_proto.Shard.ticks;
          fmt r.Ba_proto.Shard.aggregate_goodput;
          string_of_int (n Lease_drops);
          string_of_int (n Lease_rebalances);
        ])
      counts
  in
  {
    id = "S4";
    title =
      Printf.sprintf
        "Sharded scale (S1 extension): %d msgs per flow through the cell-partitioned \
         fabric, bottleneck leased per cell" messages;
    headers =
      [ "flows"; "cells"; "delivered"; "done"; "ticks"; "agg goodput"; "lease drops"; "rebalances" ];
    rows;
    notes =
      [
        "Flows are partitioned into fixed-size cells (1024 flows each), every cell its own \
         engine over flat endpoint arrays; the shared bottleneck becomes per-cell capacity \
         leases reconciled at epoch barriers (see Ba_proto.Shard and DESIGN.md).";
        "Wall-clock throughput and bytes-per-flow for the same sweep are `ba_net --scale`'s \
         stderr `scale-perf:` line and `ba_bench --workload shard-100k` — machine-dependent \
         numbers stay out of this deterministic table.";
        "Expected shape: ticks grow linearly with the frame total (the lease serves one \
         frame per tick aggregate), goodput is flat at the service rate, and nothing is \
         dropped or rebalanced because the queue share and timeout are provisioned for \
         the drain.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* C3: the storm matrix — the {!Ba_verify.Chaos.Storm} compound class
   next to its ingredients ([Crash] and [Overload]) for both block-ack
   senders: verdicts plus the recovery bill, showing what composing the
   faults adds over each alone. One replay key reproduces a storm
   ([ba_chaos --replay]). *)

let c3_storm_matrix ?(jobs = 1) ~quick () =
  let messages = if quick then 40 else 80 in
  let seeds = List.init (if quick then 6 else 15) (fun i -> i + 1) in
  let protos =
    [
      ("blockack-multi", Blockack.Protocols.multi);
      ("blockack-simple", Blockack.Protocols.simple);
    ]
  in
  let faults = [ Chaos.Crash; Chaos.Overload; Chaos.Storm ] in
  let rows =
    List.concat_map
      (fun (name, p) ->
        let r =
          Chaos.run_campaign ~messages ~config:Chaos.robust_config ~seeds ~classes:faults
            ~jobs p
        in
        List.map
          (fun (c : Chaos.class_report) ->
            let recovery =
              match c.Chaos.recovery with
              | None -> [ "-"; "-"; "-" ]
              | Some rc ->
                  [
                    string_of_int rc.Chaos.restarts;
                    Printf.sprintf "%.0f / %.0f" rc.Chaos.mean_resync_ticks
                      rc.Chaos.max_resync_ticks;
                    string_of_int rc.Chaos.retx_bytes;
                  ]
            in
            (name :: Chaos.class_name c.Chaos.fault :: string_of_int c.Chaos.runs
            :: Chaos.verdict c :: recovery))
          r.Chaos.classes)
      protos
  in
  {
    id = "C3";
    title =
      Printf.sprintf
        "Storm matrix — %d seeds x %d msgs: the compound incident vs its ingredients"
        (List.length seeds) messages;
    headers =
      [ "protocol"; "fault"; "runs"; "verdict"; "restarts"; "resync ticks mean/max"; "retx bytes" ];
    rows;
    notes =
      [
        "A storm composes the crash schedule, the overload squeeze and a bursty channel \
         in one run — the regime where the tolerance mechanisms (epoch resync, \
         backpressure, timer backoff) interact. Every ingredient is the same pure \
         function of the seed as in its dedicated class, so one replay key reproduces \
         the composition (ba_chaos --replay).";
        "Expected: both block-ack senders stay safe and complete; the storm's recovery \
         bill exceeds the crash class's alone because resyncs now fight a squeezed \
         receiver and a lossy channel for their handshake frames.";
      ];
  }

(* ------------------------------------------------------------------ *)
(* N1: the same blockack transfer, clean and under one fault plan,
   through the simulator's harness and through the UDP endpoint stack
   ({!Ba_transport.Endpoint.Pair}) on its virtual network: both
   deterministic, so the table is pinned like every other. *)

let n1_sim_vs_udp ?(jobs = 1) ~quick () =
  let messages = if quick then 120 else 300 in
  let e = Option.get (Ba_registry.Registry.find "blockack") in
  (* rto 250 ticks is 50 ms at 200 us a tick; the modulus is the
     registry's 2w. *)
  let config = Ba_registry.Registry.config ~window:16 ~rto:250 e () in
  (* A compiled plan carries per-link fault state: one per link or shim. *)
  let plan lossy =
    let spec = "ge(0.02->0.3,l=0.05/0.3)+dup(0.03x2)+spike(0.03,+30)" in
    if lossy then Some (Result.get_ok (Ba_channel.Fault_plan.of_string spec)) else None
  in
  let ms ticks = ticks *. float_of_int Ba_transport.Endpoint.Pair.virtual_tick_us /. 1000. in
  (* [acks] is acknowledgment frames or datagrams sent; [sent] is what
     crossed the network both ways: frames offered to the sim's links,
     datagrams on the UDP stack's. [clean] is delivered exactly once, in
     order, digest intact. *)
  let row (udp, lossy) =
    let completed, delivered, msgs_s, retx, (p50, p99), acks, sent, clean =
      if udp then
        let open Ba_transport.Endpoint.Pair in
        let o =
          run ~protocol:e.Ba_registry.Registry.protocol ~config ~messages ~payload_size:32
            ~wseed:3 ?plan:(plan lossy) ~impair_seed:11 ~network:Virtual ()
        in
        let n = Ba_util.Counters.get o.counters in
        let q = Ba_util.Qsketch.quantile o.latency_ms in
        ( o.completed, n Delivered, o.msgs_per_s, n Retransmissions, (q 0.5, q 0.99),
          n Acks_sent, n Datagrams_tx,
          o.completed && n Duplicates + n Misordered + n Corrupted = 0
          && o.digest = o.digest_expected )
      else
        let r =
          Harness.run e.Ba_registry.Registry.protocol ~seed:3 ~messages ~payload_size:32
            ~config ~data_delay:(Dist.Constant 1) ~ack_delay:(Dist.Constant 1)
            ?data_plan:(plan lossy) ?ack_plan:(plan lossy) ()
        in
        let s = Option.get r.Harness.latency in
        ( r.Harness.completed, r.Harness.delivered,
          float_of_int r.Harness.delivered /. ms (float_of_int r.Harness.ticks) *. 1000.,
          r.Harness.retransmissions, (ms s.Ba_util.Stats.p50, ms s.Ba_util.Stats.p99),
          r.Harness.acks_sent, r.Harness.data_sent + r.Harness.acks_sent, Harness.correct r )
    in
    let per_msg n = Printf.sprintf "%.3f" (float_of_int n /. float_of_int (max 1 delivered)) in
    [
      (if udp then "udp" else "sim"); (if lossy then "lossy" else "none");
      string_of_bool completed; Printf.sprintf "%.0f" msgs_s; string_of_int retx;
      Printf.sprintf "%.1f" p50; Printf.sprintf "%.1f" p99; per_msg acks; per_msg sent;
      string_of_bool clean;
    ]
  in
  let rows = pmap ~jobs row [ (false, false); (false, true); (true, false); (true, true) ] in
  {
    id = "N1";
    title =
      Printf.sprintf "Simulator vs the UDP endpoint stack on virtual time — blockack, %d x 32 B"
        messages;
    headers =
      [
        "backend"; "faults"; "completed"; "msgs/s"; "retx"; "p50 ms"; "p99 ms"; "acks/msg";
        "sent/msg"; "clean";
      ];
    rows;
    notes =
      [
        "Both backends run the same protocol, config and fault plan with a constant \
         1-tick delay each way, and report time at 200 us a tick. sim is the harness's \
         simulated links; udp is the real-socket endpoint stack (packer, codec, shim, ack \
         hold, watchdog) with its datagrams carried by the same links on one engine.";
        "sent/msg counts frames for sim and datagrams for udp: the udp client packs a \
         tick's data frames into one container and the server merges a drain's block \
         acks into one, so udp sends fewer, fuller datagrams.";
        "Under loss a transfer's median lands either on the in-order path or one rto \
         behind a lost data frame, so the lossy p50 is bimodal across seeds on both \
         backends; compare the lossy rows' shape, not their medians.";
      ];
  }

(* ------------------------------------------------------------------ *)

(* Presentation order, as functions so [run_all] prints each table as
   soon as it is built. *)
let grids : (?jobs:int -> quick:bool -> unit -> table) list =
  [
    (fun ?jobs:_ ~quick:_ () -> t1_intro_scenario ());
    t2_verification; f1_goodput_vs_loss; f2_goodput_vs_window; f3_recovery_time;
    f4_reorder_tolerance; t3_ack_overhead; f6_latency; t4_stenning_domain; f5_slot_reuse;
    t5_piggyback; a1_adaptive_rto; a2_dynamic_window; a3_fairness; s1_scaling; s3_churn_soak;
    s4_sharded_scale; c1_chaos_matrix; c2_crash_recovery; c3_storm_matrix; n1_sim_vs_udp;
  ]

let all ?jobs ~quick () = List.map (fun grid -> grid ?jobs ~quick ()) grids

let print_table t =
  Printf.printf "\n=== %s: %s ===\n" t.id t.title;
  Ba_util.Table.print ~headers:t.headers t.rows;
  List.iter (fun n -> Printf.printf "  note: %s\n" n) t.notes;
  print_newline ()

let run_all ?jobs ~quick () = List.iter (fun grid -> print_table (grid ?jobs ~quick ())) grids
