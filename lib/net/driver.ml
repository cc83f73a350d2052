(* The C side of the socket loop (net_stubs.c). *)
external raw_size : unit -> int = "ba_net_raw_size" [@@noalloc]
external recv : Unix.file_descr -> Bytes.t -> Bytes.t -> int = "ba_net_recv" [@@noalloc]
external same_peer : Bytes.t -> Unix.sockaddr -> bool = "ba_net_same_peer" [@@noalloc]
external sockaddr_of_raw : Bytes.t -> Unix.sockaddr = "ba_net_sockaddr"
external raise_errno : int -> string -> 'a = "ba_net_raise_errno"
external wait : Unix.file_descr array -> int -> int = "ba_net_wait"
external wall_us : unit -> int = "ba_net_now_us" [@@noalloc]

(* [recv]'s outcomes other than a length. *)
let recv_again = -1
let recv_intr = -2
let recv_refused = -3
let recv_errno_base = 256

type t = {
  engine : Ba_sim.Engine.t;
  sock : Unix.file_descr;
  tick_us : int;
  on_frame : Codec.frame -> Unix.sockaddr -> unit;
  t0_us : int;
  mutable peer : Unix.sockaddr;  (* the last datagram's sender *)
  mutable send_errors : int;
  mutable decode_errors : int;
  mutable rx_datagrams : int;
  mutable tx_datagrams : int;
}

let create ~engine ~sock ~tick_us ~on_frame () =
  if tick_us <= 0 then invalid_arg "Driver.create: tick_us must be positive";
  Unix.set_nonblock sock;
  {
    engine;
    sock;
    tick_us;
    on_frame;
    t0_us = wall_us ();
    peer = Unix.ADDR_UNIX "";  (* no Internet datagram comes from it *)
    send_errors = 0;
    decode_errors = 0;
    rx_datagrams = 0;
    tx_datagrams = 0;
  }

let loopback_socket () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  s

let ticks_at t now_us = (now_us - t.t0_us) / t.tick_us
let now_ticks t = ticks_at t (wall_us ())

(* Advance the engine to the wall tick of [now_us]. *)
let sync_at t now_us =
  let now = ticks_at t now_us in
  if now >= Ba_sim.Engine.now t.engine then Ba_sim.Engine.run_until t.engine now

let sync t = sync_at t (wall_us ())

(* One receive buffer, one raw address and one scratch frame pair for
   every driver on a domain: a loopback pair in one process would
   otherwise hold two of each. Sharing them is safe because [drain] is
   never re-entered ([on_frame] hands frames to endpoints, which only
   send), so each datagram is parsed and handed over before the next is
   read into the buffer; and because [on_frame] only borrows a frame,
   keeping at most its payload, which [Codec.decode_into] copies out of
   the buffer. *)
let rx_buf = Domain.DLS.new_key (fun () -> Bytes.create Codec.max_datagram)
let rx_raw = Domain.DLS.new_key (fun () -> Bytes.create (raw_size ()))
let rx_scratch = Domain.DLS.new_key Codec.scratch

(* The sender of the datagram just received: the cached sockaddr while
   the raw address matches it, else a new one. *)
let peer_of t raw =
  if not (same_peer raw t.peer) then t.peer <- sockaddr_of_raw raw;
  t.peer

(* Drain everything currently queued on the socket. Nonblocking, so the
   natural exit is EAGAIN; EINTR just retries; ECONNREFUSED is the error
   queue reporting a previous send bounced off a dead peer — that is
   protocol-level silence, not an I/O error, so it is swallowed (losing
   at most the datagram the bounce was attached to, i.e. nothing). *)
let rec drain_with t buf raw scratch =
  let n = recv t.sock buf raw in
  if n > 0 then begin
    t.rx_datagrams <- t.rx_datagrams + 1;
    let malformed = Codec.decode_into scratch buf ~len:n t.on_frame (peer_of t raw) in
    t.decode_errors <- t.decode_errors + if malformed < 0 then 1 else malformed;
    drain_with t buf raw scratch
  end
  else if n = 0 then begin
    t.decode_errors <- t.decode_errors + 1;
    drain_with t buf raw scratch
  end
  else if n = recv_intr || n = recv_refused then drain_with t buf raw scratch
  else if n <> recv_again then raise_errno (-n - recv_errno_base) "recvfrom"

let drain t = drain_with t (Domain.DLS.get rx_buf) (Domain.DLS.get rx_raw) (Domain.DLS.get rx_scratch)

let max_send_attempts = 4

(* A top-level loop, so a send builds no closure. *)
let rec send_attempt t addr buf len n backoff_us =
  match Unix.sendto t.sock buf 0 len [] addr with
  | _ ->
      t.tx_datagrams <- t.tx_datagrams + 1;
      true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> send_attempt t addr buf len n backoff_us
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ENOBUFS), _, _) ->
      if n >= max_send_attempts then begin
        t.send_errors <- t.send_errors + 1;
        false
      end
      else begin
        (* Kernel buffers full: brief real sleep, doubling each try
           (1, 2, 4 ms). UDP already tolerates loss, so after the last
           attempt the datagram is simply dropped. *)
        ignore (Unix.select [] [] [] (float_of_int backoff_us *. 1e-6));
        send_attempt t addr buf len (n + 1) (backoff_us * 2)
      end
  | exception
      Unix.Unix_error ((Unix.ECONNREFUSED | Unix.EHOSTUNREACH | Unix.ENETUNREACH), _, _) ->
      (* Dead or unreachable peer: equivalent to channel loss. *)
      t.send_errors <- t.send_errors + 1;
      false

let send_to t addr buf len = send_attempt t addr buf len 1 1000

let send_errors t = t.send_errors
let decode_errors t = t.decode_errors
let rx_datagrams t = t.rx_datagrams
let tx_datagrams t = t.tx_datagrams

let max_idle_us = 50_000
let max_drivers = 62

(* Every driver's engine to [now_us], every socket drained, and every
   driver's engine to [now_us] again, so that what a drain armed with
   delay 0 fires in this turn; top-level walks, so a turn builds no
   closure. *)
let rec sync_all now_us = function
  | [] -> ()
  | d :: rest ->
      sync_at d now_us;
      sync_all now_us rest

let rec drain_all = function
  | [] -> ()
  | d :: rest ->
      drain d;
      drain_all rest

(* Microseconds from [now_us] until the earliest engine deadline among
   [drivers], at most [cap] and never negative. *)
let rec timeout_us now_us cap = function
  | [] -> cap
  | d :: rest ->
      let due = Ba_sim.Engine.next_due d.engine in
      let cap =
        if due = max_int then cap
        else max 0 (min cap ((due * d.tick_us) - (now_us - d.t0_us)))
      in
      timeout_us now_us cap rest

let rec drain_ready drivers ready i =
  if ready lsr i <> 0 then begin
    if (ready lsr i) land 1 = 1 then drain drivers.(i);
    drain_ready drivers ready (i + 1)
  end

let run ?(deadline_s = 60.) ~stop drivers =
  if drivers = [] then invalid_arg "Driver.run: no drivers";
  if List.length drivers > max_drivers then invalid_arg "Driver.run: more than 62 drivers";
  let hard_deadline = wall_us () + int_of_float (deadline_s *. 1e6) in
  let all = Array.of_list drivers in
  let fds = Array.map (fun d -> d.sock) all in
  (* One clock read per turn. *)
  let rec loop () =
    let now = wall_us () in
    sync_all now drivers;
    drain_all drivers;
    sync_all now drivers;
    if stop () then true
    else if now >= hard_deadline then false
    else begin
      let ready = wait fds (timeout_us now (min max_idle_us (hard_deadline - now)) drivers) in
      if ready > 0 then drain_ready all ready 0;
      loop ()
    end
  in
  loop ()
