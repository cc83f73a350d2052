(* The transfers behind the recorded liveness defects: test_overload
   and test_extras pin one case of each, and [dune build @liveness]
   sweeps their case spaces. *)

module Config = Ba_proto.Proto_config
module Harness = Ba_proto.Harness
module Dist = Ba_channel.Dist

(* test_overload's property "bounded reassembly never corrupts or stalls
   delivery", given its two drawn parameters. Its one failing case,
   seed 4095 with [Drop_furthest], is ROADMAP item 14. *)
let pressure_run ~seed policy =
  let config =
    Config.make ~window:8 ~wire_modulus:(Some 16) ~rto:600 ~max_transit:200 ~adaptive_rto:true
      ~rx_budget:2 ~drop_policy:policy ()
  in
  Harness.run Blockack.Protocols.multi ~seed ~messages:50 ~config ~data_loss:0.05
    ~ack_loss:0.05 ~data_delay:(Dist.Uniform (20, 60)) ~ack_delay:(Dist.Uniform (20, 60))
    ~data_bottleneck:(5, 3) ()

(* Ablation A2's full-size fixed-window transfer at window [window]:
   blockack-multi, fixed rto 400, [Constant 50] delay both ways, a
   10-tick server with a 10-frame tail-drop queue, 2,000 messages,
   seed 3. At w=32 (A2's row) it livelocks: ROADMAP item 18. *)
let a2_run ~window ~deadline =
  Harness.run Blockack.Protocols.multi ~seed:3 ~messages:2000
    ~config:(Config.make ~window ~rto:400 ())
    ~data_delay:(Dist.Constant 50) ~ack_delay:(Dist.Constant 50) ~data_bottleneck:(10, 10)
    ~deadline ()
