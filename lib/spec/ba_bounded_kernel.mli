(** Bounded-storage kernel: the Section V protocol with every counter
    modulo [n] and every boolean array shrunk to [w] slots indexed modulo
    [w] — the paper's closing refinement.

    Each endpoint carries an unbounded ghost copy of the paper's
    variables beside its bounded ones. Guards and updates read only the
    bounded part; {!check} asserts that it mirrors the ghosts, that every
    wire number encodes its ghost, and that assertions 6–8 hold on the
    ghosts. [Ba_spec_bounded] (Vb) is this kernel over plain channels;
    [Ba_spec_crash] adds epochs, the resync handshake and crashes on top.

    The actions are pure functions of one endpoint and one frame, so a
    spec chooses what frames look like on its channels and how its
    transitions are labelled. *)

type params = { w : int; n : int; limit : int }

type data = { wv : int; gv : int }
(** A data frame: wire number and ghost (true) number. *)

type ack = { wi : int; wj : int; gi : int; gj : int }
(** A block acknowledgment: wire pair and ghost pair. *)

type sender = {
  bna : int;  (** na mod n *)
  bns : int;  (** ns mod n *)
  backd : Iset.t;  (** w-slot ackd array: set of occupied slots (mod w) *)
  g_na : int;  (** ghost na *)
  g_ns : int;
  g_ackd : Iset.t;
}

type receiver = {
  bnr : int;  (** nr mod n *)
  bvr : int;  (** vr mod n *)
  brcvd : Iset.t;  (** w-slot rcvd array: slots of [vr, nr+w) received *)
  g_nr : int;  (** ghost nr *)
  g_vr : int;
  g_rcvd : Iset.t;
}

val validate : who:string -> params -> unit
(** Raises [Invalid_argument "<who>: ..."] on a non-positive window, a
    modulus that is not a positive multiple of [w] (slot indices
    [wire mod w] are only meaningful then), or a negative limit. *)

val initial_sender : sender
val initial_receiver : receiver
val wrap : params -> int -> int

val send_new : params -> sender -> (sender * data) option
(** Action 0: [ns < na + w] as a forward distance below [w]; the ghost
    [ns] bounds the input at [limit]. *)

val recv_ack : params -> sender -> ack -> sender
(** Action 1′: mark the slot of each covered wire number that lies in
    the outstanding band from [na] to [ns], then advance [na] past marked
    slots, clearing each. *)

val timeout : params -> sender -> receiver -> quiet:bool -> data option
(** Action 2: the frame resending [na], when [quiet] (both channels
    empty), messages are outstanding and the receiver holds nothing at
    [nr]. *)

val recv_data : params -> receiver -> data -> receiver * ack option
(** Action 3′: a wire number less than [w] past [nr] is new and fills its
    slot; anything else is an old duplicate, answered with its singleton
    ack. *)

val advance_vr : params -> receiver -> receiver option
(** Action 4: slot [vr mod w] received -> advance [vr], clearing it. *)

val send_ack : params -> receiver -> (receiver * ack) option
(** Action 5: [nr <> vr] -> send [(nr, vr - 1)]; [nr := vr]. *)

val check :
  params ->
  sender ->
  receiver ->
  data:('d -> data option) ->
  'd Ba_channel.Multiset.t ->
  ack:('a -> ack option) ->
  'a Ba_channel.Multiset.t ->
  invariant:bool ->
  string option
(** Refinement (bounded state = ghosts folded mod [n] and [w]), then wire
    encoding of every in-transit frame, then — when [invariant] —
    assertions 6–8 on the ghosts. [data] and [ack] pick the kernel's
    frames out of a spec's channel messages. *)

val pp_data : Format.formatter -> data -> unit
val pp_ack : Format.formatter -> ack -> unit

val pp_endpoints :
  s_tag:string -> r_tag:string -> Format.formatter -> sender * receiver -> unit
(** [S{bna=.. bns=.. ackd=..<s_tag> | na=.. ns=..} R{...}]. *)
