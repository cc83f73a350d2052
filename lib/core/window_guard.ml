(* Holds live in a pair of flat int arrays compacted in place: the old
   [hold list] re-allocated itself on every [prune] (one [List.filter]
   per pump call), which put the guard on the steady-loss allocation
   profile. A hold is a (cap, expiry) pair; [len] counts live entries.
   Expiries are in practice appended in nondecreasing order (the clock
   is monotonic and [hold_for] constant per sender), but nothing here
   assumes it — [prune] keeps every unexpired entry regardless of
   position, exactly like the [List.filter] it replaces. *)

type t = {
  engine : Ba_sim.Engine.t;
  retry : Ba_sim.Engine.slot;  (* the owner's retry, armed at the earliest expiry *)
  mutable caps : int array;
  mutable expiries : int array;
  mutable len : int;
}

(* A sender builds its guard on its first held retransmission, so the
   arrays are sized for use from the start. *)
let initial_cap = 8

let create engine ~retry =
  {
    engine;
    retry = Ba_sim.Engine.slot_create engine retry;
    caps = Array.make initial_cap 0;
    expiries = Array.make initial_cap 0;
    len = 0;
  }

(* Crash–restart support: holds protect in-flight copies of the dead
   incarnation, whose frames the restarted world rejects by epoch, so
   they are simply dropped. An already-armed retry fires harmlessly —
   it re-checks the (now empty) hold set. *)
let clear t = t.len <- 0

(* In-place stable compaction of the unexpired entries. Top-level
   recursive loops (here and below) rather than local refs/closures, so
   the per-pump guard checks allocate nothing. *)
let rec prune_from t now i j =
  if i >= t.len then t.len <- j
  else if t.expiries.(i) > now then begin
    if j <> i then begin
      t.caps.(j) <- t.caps.(i);
      t.expiries.(j) <- t.expiries.(i)
    end;
    prune_from t now (i + 1) (j + 1)
  end
  else prune_from t now (i + 1) j

let prune t = prune_from t (Ba_sim.Engine.now t.engine) 0 0

let note_retransmission t ~seq ~window ~hold_for =
  prune t;
  if t.len = Array.length t.caps then begin
    let cap = 2 * t.len in
    let caps = Array.make cap 0 in
    Array.blit t.caps 0 caps 0 t.len;
    t.caps <- caps;
    let expiries = Array.make cap 0 in
    Array.blit t.expiries 0 expiries 0 t.len;
    t.expiries <- expiries
  end;
  t.caps.(t.len) <- seq + window;
  t.expiries.(t.len) <- Ba_sim.Engine.now t.engine + hold_for;
  t.len <- t.len + 1

let rec min_over a len i acc = if i >= len then acc else min_over a len (i + 1) (min acc a.(i))

let frontier t =
  prune t;
  min_over t.caps t.len 0 max_int

(* The slot is disarmed before its callback runs, so a retry that finds
   the frontier still held arms it again. *)
let when_blocked t =
  prune t;
  if t.len > 0 && not (Ba_sim.Engine.slot_armed t.engine t.retry) then
    Ba_sim.Engine.slot_arm t.engine t.retry
      ~delay:(min_over t.expiries t.len 0 max_int - Ba_sim.Engine.now t.engine)
