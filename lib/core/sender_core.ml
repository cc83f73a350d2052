(* The block-acknowledgment sender, written once. The paper derives its
   Section IV sender from the Section II one by swapping a single
   action: action 2 (one timer; its expiry resends [na]) becomes action
   2′ (one timer per outstanding message). Everything else — the window,
   the epoch and its REQ/POS/FIN resync handshake, crash and restart, the
   window clamp and the counters — lives here, and a {!TIMERS} policy
   supplies the timer half. Section VI's slot reuse is the same sender
   with a wider flight band: up to [window] messages unacknowledged, but
   [ns] may run up to [lead >= window] past [na].

   Window bookkeeping lives in dense {!Ba_util.Ring_buffer} columns
   sized to the flight, not to the band ([band = lead], by default
   [window]): they start empty and grow by the store's capacity rule,
   the last step clamped to the band, just before [ns - na] would
   exceed their capacity. They are indexed by [seq mod capacity] and
   valid exactly for the outstanding range [na, ns), whose members are
   distinct mod capacity; a grow places them again at their new slots.
   At full capacity this is [seq mod band]. *)

(* The sender's state. It sits outside {!Make} so that a {!TIMERS}
   policy's hooks can take the sender itself: the policy keeps only what
   is its own (['p]) and reads the engine, the config and the one engine
   slot from here. *)
type 'p core = {
  engine : Ba_sim.Engine.t;
  config : Config.t;
  mutable slot : Ba_sim.Engine.slot;
      (* the timeout timer, armed by the policy; firing runs action 2 / 2′.
         Set once, by [create], to a slot whose callback needs the record. *)
  tx : Ba_proto.Wire.data -> unit;
  source : Ba_proto.Source.t;  (* the outbox: payload of [seq] at position [seq] *)
  band : int;  (* the most [ns - na] may reach: the lead, else the window *)
  mutable acked_seq : int array;  (* seq when that seq is acked out of order, -1 otherwise *)
  timers : 'p;
  (* Built on first use: a flow that never restarts and never
     retransmits under a wire modulus never needs them. *)
  mutable sync_slot : Ba_sim.Engine.slot option;  (* REQ retry until the receiver's POS *)
  mutable guard : Window_guard.t option;  (* none until the first held retransmission *)
  mutable na : int;
  mutable ns : int;
  mutable unacked : int;  (* members of [na, ns) not yet acknowledged *)
  mutable alive : bool;
  mutable epoch : int;  (* incarnation; stable storage *)
  mutable syncing : bool;  (* restarted; REQ sent, POS pending *)
  mutable retransmissions : int;
  mutable corrupt_acks_dropped : int;
  mutable wclamp : int option;
      (* externally imposed window clamp (fabric backpressure); survives
         crash–restart because the pressure is outside this endpoint *)
}

(** What a timeout action decides. Hooks receive the sender, or only the
    policy's state, and slots ([seq mod capacity]). The sender's one engine
    slot ([core.slot]) is the policy's to arm and cancel; when it fires,
    the core asks {!fired} which timer that was. *)
module type TIMERS = sig
  type t

  val create : Config.t -> t
  (** The policy's own state, with no column slot until the first
      {!grow}. *)

  val fired : t core -> int
  (** The sender's slot fired: name the timer that expired with an
      integer of the policy's choosing, which {!due} maps back to a
      message, and arm the slot for the next timer, if any. *)

  val grow : t -> slots:int -> na:int -> ns:int -> unit
  (** The core's capacity grew to [slots]: place the entries of the
      outstanding range [na, ns) again at [seq mod slots]. *)

  val window : t core -> int -> int
  (** Narrow the effective window further (a congestion window); the
      identity for a policy without one. *)

  val arm : t core -> slot:int -> fresh:bool -> unit
  (** The message held in slot [slot] was just transmitted — for the
      first time when [fresh]. *)

  val due : t -> int -> na:int -> int
  (** The sequence number expiry [k] resends. The core resends it only
      while it is outstanding and unacknowledged. *)

  val resend : t core -> slot:int -> oldest:bool -> unit
  (** An expiry is about to resend the message in [slot]; [oldest] when
      that message is [na]. *)

  val acked : t core -> slot:int -> unit
  (** The message in [slot] was newly acknowledged. *)

  val slid : t core -> outstanding:int -> advanced:int -> unit
  (** An acknowledgment moved [na] forward by [advanced] (possibly 0),
      leaving [outstanding] messages. *)

  val wipe : t core -> unit
  (** Crash: forget every armed timer and every learned estimate. *)
end

(* The checks [create] runs: the config, then a lead band's own bounds,
   then the codec over the band. *)
let validate ?lead config =
  Config.validate config;
  let w = config.Config.window in
  let band = Option.value lead ~default:w in
  if band < w then invalid_arg "Sender_core.create: lead must be >= window";
  (* A lead band decodes over [lead] positions, so the sound modulus
     bound is [2 * lead]; say so here rather than let the codec report
     a misleading "2*window" (its window IS the lead). *)
  (match config.Config.wire_modulus with
  | Some n when band > w && n < 2 * band ->
      invalid_arg
        (Printf.sprintf "Sender_core.create: modulus %d < 2*lead=%d loses information" n
           (2 * band))
  | Some _ | None -> ());
  ignore (Seqcodec.create ~window:band ~wire_modulus:config.Config.wire_modulus : Seqcodec.t)

(** The sender operations shared by every timer policy. *)
module type S = sig
  type t

  val create :
    Ba_sim.Engine.t ->
    Config.t ->
    tx:(Ba_proto.Wire.data -> unit) ->
    next_payload:(unit -> string) ->
    t

  val pump : t -> unit
  (** Pull payloads from [next_payload] while the window has room, sending
      each immediately; after a resync, first resend what the outbox
      holds from [ns] on. Called automatically after window-opening
      acks; call it once after setup, and again if the supplier gains
      new data. *)

  val on_ack : t -> Ba_proto.Wire.ack -> unit
  (** Process a (possibly stale, duplicate or corrupted) block
      acknowledgment. *)

  val na : t -> int
  (** Lowest unacknowledged sequence number. *)

  val ns : t -> int
  (** Next fresh sequence number. *)

  val outstanding : t -> int
  (** [ns - na], between 0 and the band size (the window, or a lead). *)

  val is_done : t -> bool
  (** Supplier exhausted, nothing outstanding and nothing left to
      replay. *)

  val retransmissions : t -> int

  val corrupt_acks_dropped : t -> int
  (** Acknowledgments discarded because their checksum failed
      ({!Ba_proto.Wire.ack_ok}); acting on a mangled block range could
      acknowledge data the receiver never accepted. A POS naming a
      position the outbox cannot replay from (below its released prefix
      or past everything issued) is discarded and counted here too, as
      is an ack whose bounds no {!Seqcodec.encode} could produce. *)

  val clamp_window : t -> int -> unit
  (** [clamp_window t n] caps the effective window at [n] messages — the
      fabric's backpressure path. [n >= window] removes the clamp; [n < 1]
      raises. The clamp composes with any congestion window (the minimum
      wins) and survives crash–restart, since the pressure it reflects is
      external to this endpoint. *)

  val buffered_bytes : t -> int
  (** Total payload bytes in the retransmit buffer (memory accounting). *)

  (** {2 Crash–restart lifecycle}

      [crash] wipes the volatile state — window buffers, [na]/[ns], all
      timers and estimates, retransmission-frontier holds. Stable storage
      keeps the incarnation epoch (with [resync_epochs]) and the
      application outbox ({!Ba_proto.Source} holds every payload not
      yet acknowledged; the negative control keeps all it issued). While
      down, frames are ignored and [pump] is a no-op.

      [restart] with [resync_epochs]: bump the epoch and run the REQ → POS
      → FIN handshake; on POS the sender aligns [na = ns = pos] and
      resumes, replaying the outbox from there. Without it (negative
      control), resume blind from position 0 with the old epoch. *)

  val crash : t -> unit
  val restart : t -> unit
  val epoch : t -> int

  val syncing : t -> bool
  (** Restarted and still awaiting the receiver's POS. *)
end

module Make (P : TIMERS) : sig
  include S with type t = P.t core

  val create :
    ?lead:int ->
    Ba_sim.Engine.t ->
    Config.t ->
    tx:(Ba_proto.Wire.data -> unit) ->
    next_payload:(unit -> string) ->
    t
  (** {!S.create} with an optional Section VI lead band (default: the
      window); see {!Sender_multi.create}. *)

  val unacked : t -> int
end = struct
  type t = P.t core

  (* The codec is the config's wire modulus ({!Seqcodec}), checked
     against the band at [create]. *)
  let codec t = t.config.Config.wire_modulus
  let slot_of t seq = seq mod Array.length t.acked_seq
  let is_acked t seq = t.acked_seq.(slot_of t seq) = seq
  let outstanding t = t.ns - t.na
  let unacked t = t.unacked
  let running t = t.alive && not t.syncing

  (* The configured window narrowed by every active pressure signal: any
     fabric backpressure clamp and the policy's congestion window. *)
  let effective_window t =
    let w = t.config.Config.window in
    let w = match t.wclamp with Some c -> min w c | None -> w in
    P.window t w

  (* Make room for one more outstanding message: the next capacity
     (the last step clamped to the band), with [na, ns) placed again.
     Admission keeps [ns - na] below the band, so one step does. *)
  let grow t =
    let cap =
      Ba_util.Ring_buffer.next_capacity (Array.length t.acked_seq) ~need:(outstanding t)
        ~limit:t.band
    in
    t.acked_seq <- Ba_util.Ring_buffer.place t.acked_seq ~cap ~fill:(-1) ~lo:t.na ~hi:t.ns;
    P.grow t.timers ~slots:cap ~na:t.na ~ns:t.ns

  let transmit t seq ~fresh =
    let i = slot_of t seq in
    t.tx
      (Ba_proto.Wire.make_data_e ~epoch:t.epoch ~seq:(Seqcodec.encode (codec t) seq)
         ~payload:(Ba_proto.Source.get t.source seq));
    P.arm t ~slot:i ~fresh

  (* Admission: fewer than [e] messages unacknowledged, and [ns] within
     [e + lead - window] of [na], so the flight band never exceeds the
     [lead] the receiver decodes over. At [lead = window] the second
     bound implies the first and this is the classic [ns - na < e]. *)
  let rec pump t =
    let e = effective_window t in
    if running t && t.unacked < e && outstanding t < e + t.band - t.config.Config.window
    then begin
      match t.guard with
      | Some g when t.ns >= Window_guard.frontier g ->
          (* A retransmitted copy may still be in flight; sending past its
             decode window would risk mis-reconstruction at the receiver. *)
          Window_guard.when_blocked g
      | Some _ | None ->
          (* [ns] is the one send cursor. Below the outbox's [issued] it
             replays what a resync moved it back over; at [issued] it
             takes the next payload, if there is one. *)
          let seq = t.ns in
          if
            seq < Ba_proto.Source.issued t.source || Ba_proto.Source.next t.source
          then begin
            if outstanding t = Array.length t.acked_seq then grow t;
            t.acked_seq.(slot_of t seq) <- -1;
            t.ns <- t.ns + 1;
            t.unacked <- t.unacked + 1;
            transmit t seq ~fresh:true;
            pump t
          end
    end

  let guard t =
    match t.guard with
    | Some g -> g
    | None ->
        let g = Window_guard.create t.engine ~retry:(fun () -> pump t) in
        t.guard <- Some g;
        g

  let is_done t =
    running t && outstanding t = 0 && t.ns >= Ba_proto.Source.issued t.source
    && Ba_proto.Source.exhausted t.source

  (* Action 2 / 2′: the policy names the message whose timer expired. An
     expired timer means no copy of it or of a covering acknowledgment
     survives in either channel, so resend it. *)
  let on_timeout t k =
    let seq = P.due t.timers k ~na:t.na in
    if running t && seq >= t.na && seq < t.ns && not (is_acked t seq) then begin
      t.retransmissions <- t.retransmissions + 1;
      P.resend t ~slot:(slot_of t seq) ~oldest:(seq = t.na);
      (* With unbounded wire numbers decode is exact and no hold is needed. *)
      if t.config.Config.wire_modulus <> None then
        Window_guard.note_retransmission (guard t) ~seq ~window:t.band
          ~hold_for:(Config.hold_duration t.config);
      transmit t seq ~fresh:false
    end

  let on_fire t = on_timeout t (P.fired t)

  (* Handshake message 1 (REQ): a restarted sender has no idea how much of
     its outbox the receiver already delivered; ask. Retried on a timer
     until POS arrives. *)
  let rec send_req t =
    t.tx (Ba_proto.Wire.make_sync_req ~epoch:t.epoch);
    Ba_sim.Engine.slot_arm t.engine (sync_slot t) ~delay:t.config.Config.rto

  and sync_slot t =
    match t.sync_slot with
    | Some slot -> slot
    | None ->
        let slot =
          Ba_sim.Engine.slot_create t.engine (fun () -> if t.alive && t.syncing then send_req t)
        in
        t.sync_slot <- Some slot;
        slot

  let cancel_sync t =
    match t.sync_slot with Some slot -> Ba_sim.Engine.slot_cancel t.engine slot | None -> ()

  let send_fin t = t.tx (Ba_proto.Wire.make_sync_fin ~epoch:t.epoch)

  let create ?lead engine config ~tx ~next_payload =
    validate ?lead config;
    let band = Option.value lead ~default:config.Config.window in
    let t =
      {
        engine;
        config;
        slot = Ba_sim.Engine.no_slot;
        tx;
        source = Ba_proto.Source.create next_payload;
        band;
        acked_seq = [||];
        timers = P.create config;
        sync_slot = None;
        guard = None;
        na = 0;
        ns = 0;
        unacked = 0;
        alive = true;
        epoch = 0;
        syncing = false;
        retransmissions = 0;
        corrupt_acks_dropped = 0;
        wclamp = None;
      }
    in
    (* One closure per sender, over the sender itself: the slot built
       here is the only timer the policy arms. *)
    t.slot <- Ba_sim.Engine.slot_create engine (fun () -> on_fire t);
    t

  (* Wipe all volatile state. [na]/[ns] are zeroed too (they are
     meaningless without the buffers); the truth about position lives at
     the receiver and comes back via POS. Stable storage keeps only the
     epoch and the application outbox ({!Ba_proto.Source} holds the
     unacknowledged suffix for replay). *)
  let wipe_volatile t =
    P.wipe t;
    cancel_sync t;
    Array.fill t.acked_seq 0 (Array.length t.acked_seq) (-1);
    Option.iter Window_guard.clear t.guard;
    t.na <- 0;
    t.ns <- 0;
    t.unacked <- 0

  let crash t =
    if t.alive then begin
      t.alive <- false;
      t.syncing <- false;
      wipe_volatile t
    end

  (* A POS the outbox cannot replay from: below its released prefix (the
     receiver's durable [nr] never falls below [na], so only a forged
     frame or a receiver outside the failure model says so) or past
     everything issued. Such a frame is dropped before it touches any
     state. *)
  let unreplayable t pos =
    pos < Ba_proto.Source.base t.source || pos > Ba_proto.Source.issued t.source

  (* Adopt the receiver-announced resume position: align [na]/[ns] there,
     so that [pump] replays the outbox from it. *)
  let resync_to t pos =
    t.na <- pos;
    t.ns <- pos;
    t.unacked <- 0;
    t.syncing <- false;
    cancel_sync t

  let restart t =
    if not t.alive then begin
      t.alive <- true;
      if t.config.Config.resync_epochs then begin
        t.epoch <- t.epoch + 1;
        t.syncing <- true;
        send_req t
      end
      else begin
        (* Negative control: resume blind from zero ([wipe_volatile]
           left [na = ns = 0]), replaying the whole outbox against a
           receiver that may be far ahead. *)
        pump t
      end
    end

  let mark_acked t seq =
    if seq >= t.na && seq < t.ns && not (is_acked t seq) then begin
      let i = slot_of t seq in
      t.acked_seq.(i) <- seq;
      t.unacked <- t.unacked - 1;
      P.acked t ~slot:i
    end

  (* Action 1: mark every covered sequence number that is still
     outstanding, then slide na over the acknowledged prefix. Stale
     duplicates decode outside [na, ns) and are ignored. A corrupted
     acknowledgment is discarded outright: a mangled block range could
     cover messages the receiver never accepted, which is a safety
     violation, not just waste. With epochs on, frames from a dead
     incarnation are rejected the same way the receiver rejects stale
     data; a *higher* epoch means the receiver restarted and its POS
     tells us everything we need. *)
  let on_ack t a =
    if not t.alive then ()
    else if not (Ba_proto.Wire.ack_ok a) then
      t.corrupt_acks_dropped <- t.corrupt_acks_dropped + 1
    else begin
      let epochs = t.config.Config.resync_epochs in
      if epochs && a.Ba_proto.Wire.epoch < t.epoch then ()
      else if epochs && a.Ba_proto.Wire.epoch > t.epoch then begin
        (* Only a restarted receiver mints a higher epoch, and it only
           sends POS until we confirm — adopt its epoch and position. *)
        match a.Ba_proto.Wire.akind with
        | Ba_proto.Wire.Sync_pos when unreplayable t a.Ba_proto.Wire.lo ->
            t.corrupt_acks_dropped <- t.corrupt_acks_dropped + 1
        | Ba_proto.Wire.Sync_pos ->
            t.epoch <- a.Ba_proto.Wire.epoch;
            wipe_volatile t;
            resync_to t a.Ba_proto.Wire.lo;
            send_fin t;
            pump t
        | Ba_proto.Wire.Ack -> ()
      end
      else begin
        match a.Ba_proto.Wire.akind with
        | Ba_proto.Wire.Sync_pos ->
            if t.syncing && unreplayable t a.Ba_proto.Wire.lo then
              t.corrupt_acks_dropped <- t.corrupt_acks_dropped + 1
            else if t.syncing then begin
              resync_to t a.Ba_proto.Wire.lo;
              send_fin t;
              pump t
            end
            else
              (* Duplicate POS: our FIN was lost and the receiver is still
                 retrying. Re-confirm; do not move the window. *)
              send_fin t
        | Ba_proto.Wire.Ack
          when not
                 (Seqcodec.is_wire (codec t) a.Ba_proto.Wire.lo
                 && Seqcodec.is_wire (codec t) a.Ba_proto.Wire.hi) ->
            t.corrupt_acks_dropped <- t.corrupt_acks_dropped + 1
        | Ba_proto.Wire.Ack ->
            if not t.syncing then begin
              let lo = a.Ba_proto.Wire.lo in
              let hi = a.Ba_proto.Wire.hi in
              (match codec t with
              | Some _ as codec ->
                  for k = 0 to Seqcodec.span codec ~lo ~hi - 1 do
                    let wire = Seqcodec.shift codec lo k in
                    mark_acked t (Seqcodec.decode_ack codec ~na:t.na wire)
                  done
              | None ->
                  (* Unbounded wire numbers are the sequence numbers, and
                     only [na, ns) can change: clipping to it keeps an
                     inverted or huge range from a hostile peer from
                     raising or looping. *)
                  for seq = max lo t.na to min hi (t.ns - 1) do
                    mark_acked t seq
                  done);
              let na_before = t.na in
              while t.na < t.ns && is_acked t t.na do
                t.acked_seq.(slot_of t t.na) <- -1;
                t.na <- t.na + 1
              done;
              (* The receiver's POS never names a position below [na], so
                 the acknowledged prefix leaves the outbox; the blind
                 restart of the negative control replays from 0 and keeps
                 it. *)
              if t.config.Config.resync_epochs && t.na > na_before then
                Ba_proto.Source.release t.source ~below:t.na;
              P.slid t ~outstanding:(outstanding t) ~advanced:(t.na - na_before);
              pump t
            end
      end
    end

  let na t = t.na
  let ns t = t.ns
  let retransmissions t = t.retransmissions
  let corrupt_acks_dropped t = t.corrupt_acks_dropped

  let clamp_window t n =
    if n < 1 then invalid_arg "Sender_core.clamp_window: clamp must be >= 1";
    t.wclamp <- (if n >= t.config.Config.window then None else Some n)

  let buffered_bytes t =
    let n = ref 0 in
    for seq = t.na to t.ns - 1 do
      n := !n + String.length (Ba_proto.Source.get t.source seq)
    done;
    !n

  let epoch t = t.epoch
  let syncing t = t.syncing
end
