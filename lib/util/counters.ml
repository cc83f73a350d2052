(** One block of named event counts.

    Every count a run reports is an entry of one block, indexed by
    {!key}: a link's or a shim's channel verdicts, a flow's deliveries
    and frames, a runner's admission and watchdog totals, a UDP pair's
    datagrams. A holder that counts on the per-message path (a link, a
    shim, a cell, an endpoint) keeps its own mutable int fields and
    builds a block only when a result is read, so a block costs nothing
    per message. Blocks of like holders sum with {!merge_into}.

    The module has no interface file: it would repeat {!key} verbatim,
    and a block is an int array by design. *)

type key =
  | Offered  (** frames or datagrams handed to a channel (a link or a shim) *)
  | Passed  (** copies the channel let through, duplicates included *)
  | Lost  (** random loss and fault-verdict drops *)
  | Queue_dropped  (** tail drops at a full bottleneck queue *)
  | Reordered  (** arrivals overtaken by a later-sent frame *)
  | Duplicated  (** extra copies injected by duplicate verdicts *)
  | Mangled
      (** frames damaged by corrupt verdicts: what the channel did, where
          [Corrupted] is what a receiver got *)
  | Delayed  (** datagrams deferred by a delay-spike verdict *)
  | Outage_drops  (** sends discarded inside a scheduled outage *)
  | Gated  (** sends discarded while quarantined *)
  | Messages  (** payloads the application offered *)
  | Delivered  (** distinct payloads delivered *)
  | Duplicates  (** deliveries of an already-delivered payload *)
  | Misordered  (** deliveries that broke application order *)
  | Corrupted  (** deliveries whose payload failed validation *)
  | Data_sent  (** frames carrying data, REQ/FIN handshake frames included *)
  | Acks_sent  (** frames carrying an acknowledgment and no data, POS included *)
  | Piggybacked_acks  (** acknowledgments that rode a data frame *)
  | Retransmissions
  | Pressure_drops  (** in-window frames a receiver refused under its [rx_budget] *)
  | Completed_flows
  | Departed  (** flows closed at their [stop_at] while mid-transfer *)
  | Refused  (** flows refused by admission control *)
  | Clamped_cells  (** cells whose admission imposed a window clamp *)
  | Lease_drops  (** frames tail-dropped at a full capacity-lease queue *)
  | Lease_rebalances  (** barriers at which idle leased capacity was re-leased *)
  | Quarantine_events
  | Watchdog_resyncs
  | Quarantined  (** flows still quarantined when the run ended *)
  | Datagrams_tx  (** datagrams put on a socket, a container counting once *)
  | Data_datagrams  (** the data direction's share of [Datagrams_tx] *)

(** Every key, in declaration order. *)
let all =
  [
    Offered; Passed; Lost; Queue_dropped; Reordered; Duplicated; Mangled; Delayed;
    Outage_drops; Gated; Messages; Delivered; Duplicates; Misordered; Corrupted; Data_sent;
    Acks_sent; Piggybacked_acks; Retransmissions; Pressure_drops; Completed_flows; Departed;
    Refused; Clamped_cells; Lease_drops; Lease_rebalances; Quarantine_events;
    Watchdog_resyncs; Quarantined; Datagrams_tx; Data_datagrams
  ]

(* A key's slot in a block. *)
let index = function
  | Offered -> 0
  | Passed -> 1
  | Lost -> 2
  | Queue_dropped -> 3
  | Reordered -> 4
  | Duplicated -> 5
  | Mangled -> 6
  | Delayed -> 7
  | Outage_drops -> 8
  | Gated -> 9
  | Messages -> 10
  | Delivered -> 11
  | Duplicates -> 12
  | Misordered -> 13
  | Corrupted -> 14
  | Data_sent -> 15
  | Acks_sent -> 16
  | Piggybacked_acks -> 17
  | Retransmissions -> 18
  | Pressure_drops -> 19
  | Completed_flows -> 20
  | Departed -> 21
  | Refused -> 22
  | Clamped_cells -> 23
  | Lease_drops -> 24
  | Lease_rebalances -> 25
  | Quarantine_events -> 26
  | Watchdog_resyncs -> 27
  | Quarantined -> 28
  | Datagrams_tx -> 29
  | Data_datagrams -> 30

(** The key's printed name, distinct per key: ["queue-dropped"] for
    [Queue_dropped]. *)
let name = function
  | Offered -> "offered"
  | Passed -> "passed"
  | Lost -> "lost"
  | Queue_dropped -> "queue-dropped"
  | Reordered -> "reordered"
  | Duplicated -> "duplicated"
  | Mangled -> "mangled"
  | Delayed -> "delayed"
  | Outage_drops -> "outage-drops"
  | Gated -> "gated"
  | Messages -> "messages"
  | Delivered -> "delivered"
  | Duplicates -> "duplicates"
  | Misordered -> "misordered"
  | Corrupted -> "corrupted"
  | Data_sent -> "data-sent"
  | Acks_sent -> "acks-sent"
  | Piggybacked_acks -> "piggybacked-acks"
  | Retransmissions -> "retransmissions"
  | Pressure_drops -> "pressure-drops"
  | Completed_flows -> "completed-flows"
  | Departed -> "departed"
  | Refused -> "refused"
  | Clamped_cells -> "clamped-cells"
  | Lease_drops -> "lease-drops"
  | Lease_rebalances -> "lease-rebalances"
  | Quarantine_events -> "quarantine-events"
  | Watchdog_resyncs -> "watchdog-resyncs"
  | Quarantined -> "quarantined"
  | Datagrams_tx -> "datagrams-tx"
  | Data_datagrams -> "data-datagrams"

(** A block: one int per key, at its {!index}, all 0 at {!create}. Two
    blocks are equal under [=] iff every entry is. *)
type t = int array

let create () = Array.make (List.length all) 0
let get t k = t.(index k)
let add t k n = t.(index k) <- t.(index k) + n

(** [merge_into dst src] adds every entry of [src] into [dst]: a sum,
    so merging is associative and commutative, with [create ()] as its
    identity. *)
let merge_into dst src = Array.iteri (fun i n -> dst.(i) <- dst.(i) + n) src
