(** One flow's verdict: what a simulated connection delivered, what it
    cost on the wire and how it recovered.

    {!Harness.run} returns one; {!Fabric.run} returns one per admitted
    flow; both are built by [Cell.flow_result], so every check written
    against harness output also reads fabric output. *)

type result = {
  protocol : string;
  completed : bool;  (** all payloads delivered and acknowledged *)
  ticks : int;  (** simulated time the flow was open: start to completion, departure or run end *)
  messages : int;  (** payloads offered *)
  delivered : int;  (** distinct payloads delivered *)
  duplicates : int;  (** deliveries of an already-delivered payload *)
  misordered : int;  (** deliveries that broke application order *)
  corrupted : int;  (** deliveries of an unparseable payload *)
  data_sent : int;
  data_dropped : int;
  data_queue_dropped : int;  (** tail drops at the data-link bottleneck *)
  data_reordered : int;  (** wire-level overtakings on the data link *)
  data_duplicated : int;  (** extra copies injected by a fault plan *)
  data_corrupted : int;  (** wire-level corruptions injected on the data link *)
  data_outage_drops : int;  (** data frames lost to scheduled outages *)
  acks_sent : int;
  acks_dropped : int;
  acks_corrupted : int;  (** wire-level corruptions injected on the ack link *)
  ack_outage_drops : int;  (** acks lost to scheduled outages *)
  retransmissions : int;
  goodput : float;  (** delivered payloads per 1000 ticks *)
  latency : Ba_util.Stats.summary option;
      (** per-payload delivery latency (ticks from entering the sender's
          window to in-order delivery); [None] when nothing was delivered *)
  latencies : float list;
      (** the raw per-payload latency samples behind [latency], in
          delivery order (for histograms) *)
  ack_overhead : float;  (** ack bytes per delivered payload byte *)
  efficiency : float;  (** delivered / data_sent: 1.0 means no waste *)
  crashes : int;  (** endpoint crashes injected into this flow *)
  restarts : int;  (** endpoint restarts *)
  resync_rounds : int;  (** handshake frames (REQ/POS/FIN) sent, retries included *)
  resync_ticks : Ba_util.Stats.summary option;
      (** per-restart recovery time: restart tick to the next in-order
          delivery (or completion); [None] when nothing restarted *)
  retx_bytes : int;  (** bytes of retransmitted payload copies on the wire *)
  pressure_drops : int;
      (** in-window frames the receiver refused for buffer-full under an
          [rx_budget]; behaviorally channel losses (never acknowledged) *)
}
