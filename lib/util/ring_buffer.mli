(** The one sequence-window store: entries at slot [seq mod capacity].

    Storage is the paper's bounded-array refinement ([ackd]/[rcvd]
    accessed modulo [w], Section V), sized to what is in use rather than
    to the window: empty until first use, then doubled, up to a limit,
    as sequence numbers reach further past the window's low edge. Every
    endpoint window column lives here, in one of two uses:

    - {b keyed}: a ['a t] keeps the key beside each value, so a slot
      names its key and absent keys read as absent. The block-ack
      [Receiver]'s reassembly buffer, selective repeat's
      receive buffer, Stenning's set of acknowledged messages and the
      UDP client's pull log ([Endpoint.Client.pull_wall]) each hold one.
    - {b dense}: a plain array over a range [[lo, hi)] every member of
      which is live. [Source]'s outbox ([[base, issued)]),
      [Sender_core]'s acknowledged-out-of-order column and
      [Sender_multi]'s timer columns ([[na, ns)]) grow with
      {!next_capacity} and {!place}.

    Both uses grow by the same rule, and only this module places entries
    again when a capacity changes. Keys are non-negative. *)

type 'a t

val create : limit:int -> 'a -> 'a t
(** [create ~limit fill] makes an empty store of capacity 0 that will
    grow to at most [limit] slots ([max_int]: unbounded). [fill] is the
    value an empty slot holds, so a removed value is not kept alive.
    Raises [Invalid_argument] unless [limit > 0]. *)

val set : 'a t -> lo:int -> int -> 'a -> unit
(** [set t ~lo k v] stores [v] under key [k], where [lo <= k < lo + limit]
    and [lo] is the window's low edge. A key below [lo] is dead: [set]
    may overwrite it, and growth drops it. When [k - lo] reaches the
    capacity, the store first grows to {!next_capacity} and places its
    keys at or above [lo] again. Raises [Invalid_argument] if [k]'s
    slot holds another key at or above [lo] (a slot collision): a store
    never evicts a live key. *)

val mem : 'a t -> int -> bool
(** Whether key [k] is held. A dead key is held until overwritten or
    dropped. *)

val find : 'a t -> int -> 'a
(** The value under key [k]. Raises [Not_found] if it is not held. *)

val remove : 'a t -> int -> unit
(** Drop key [k] (no-op if absent). *)

val occupancy : 'a t -> int
(** Keys held, dead ones included. *)

val capacity : 'a t -> int
(** Slots: 0 until the first {!set}, never above the limit. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Every held (key, value) pair, in slot order. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Fold over every held (key, value) pair, in slot order. *)

val clear : 'a t -> unit
(** Drop every key; the capacity is kept. *)

(** {2 Dense columns} *)

val next_capacity : int -> need:int -> limit:int -> int
(** The one capacity rule: from capacity [cap], double (from 1) until
    the capacity exceeds offset [need], then clamp to [limit]. *)

val place : 'a array -> cap:int -> fill:'a -> lo:int -> hi:int -> 'a array
(** [place a ~cap ~fill ~lo ~hi] is a fresh [cap]-slot column holding
    [a]'s entry for every [k] in [[lo, hi)] at slot [k mod cap], and
    [fill] elsewhere. [a] holds [k] at [k mod Array.length a]. *)
