type t = {
  engine : Ba_sim.Engine.t;
  sock : Unix.file_descr;
  tick_us : int;
  on_frame : Codec.frame -> Unix.sockaddr -> unit;
  t0 : float;
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
    t0 = Unix.gettimeofday ();
    send_errors = 0;
    decode_errors = 0;
    rx_datagrams = 0;
    tx_datagrams = 0;
  }

let loopback_socket () =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  s

let now_ticks t =
  let elapsed_us = (Unix.gettimeofday () -. t.t0) *. 1e6 in
  int_of_float (elapsed_us /. float_of_int t.tick_us)

let sync t =
  let now = now_ticks t in
  if now >= Ba_sim.Engine.now t.engine then Ba_sim.Engine.run t.engine ~until:now

(* Seconds of wall clock until the engine's next due event; None when the
   queue is empty. Never negative. *)
let next_deadline_s t =
  match Ba_sim.Engine.next_due t.engine with
  | None -> None
  | Some due ->
      let due_s = float_of_int (due * t.tick_us) *. 1e-6 in
      let elapsed = Unix.gettimeofday () -. t.t0 in
      Some (Float.max 0. (due_s -. elapsed))

(* One receive buffer, a largest datagram, and one scratch frame pair
   for every driver on a domain: a loopback pair in one process would
   otherwise hold two of each. Sharing both is safe because
   [pump_socket] is never re-entered ([on_frame] hands frames to
   endpoints, which only send), so each datagram is parsed and handed
   over before the next is read into the buffer; and because [on_frame]
   only borrows a frame, keeping at most its payload, which
   [Codec.decode_into] copies out of the buffer. *)
let rx_buf = Domain.DLS.new_key (fun () -> Bytes.create Codec.max_datagram)
let rx_scratch = Domain.DLS.new_key Codec.scratch

(* Drain everything currently queued on the socket. Nonblocking, so the
   natural exit is EAGAIN; EINTR just retries; ECONNREFUSED is the error
   queue reporting a previous send bounced off a dead peer — that is
   protocol-level silence, not an I/O error, so it is swallowed (losing
   at most the datagram the bounce was attached to, i.e. nothing). *)
let pump_socket t =
  let rx_buf = Domain.DLS.get rx_buf and scratch = Domain.DLS.get rx_scratch in
  let continue = ref true in
  while !continue do
    match Unix.recvfrom t.sock rx_buf 0 (Bytes.length rx_buf) [] with
    | 0, _ -> t.decode_errors <- t.decode_errors + 1
    | len, from ->
        t.rx_datagrams <- t.rx_datagrams + 1;
        let malformed = Codec.decode_into scratch rx_buf ~len t.on_frame from in
        t.decode_errors <- t.decode_errors + if malformed < 0 then 1 else malformed
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> continue := false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ()
  done

let max_send_attempts = 4

let send_to t addr buf len =
  let rec attempt n backoff_us =
    match Unix.sendto t.sock buf 0 len [] addr with
    | _ ->
        t.tx_datagrams <- t.tx_datagrams + 1;
        true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> attempt n backoff_us
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
          attempt (n + 1) (backoff_us * 2)
        end
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.EHOSTUNREACH | Unix.ENETUNREACH), _, _) ->
        (* Dead or unreachable peer: equivalent to channel loss. *)
        t.send_errors <- t.send_errors + 1;
        false
  in
  attempt 1 1000

let send_errors t = t.send_errors
let decode_errors t = t.decode_errors
let rx_datagrams t = t.rx_datagrams
let tx_datagrams t = t.tx_datagrams

let max_idle_s = 0.05

let run ?(deadline_s = 60.) ~stop drivers =
  if drivers = [] then invalid_arg "Driver.run: no drivers";
  let hard_deadline = Unix.gettimeofday () +. deadline_s in
  let fds = List.map (fun d -> d.sock) drivers in
  let find_driver fd = List.find (fun d -> d.sock == fd) drivers in
  let rec loop () =
    List.iter sync drivers;
    List.iter pump_socket drivers;
    List.iter sync drivers;
    if stop () then true
    else
      let now = Unix.gettimeofday () in
      if now >= hard_deadline then false
      else
        let timeout =
          List.fold_left
            (fun acc d ->
              match next_deadline_s d with None -> acc | Some s -> Float.min acc s)
            max_idle_s drivers
        in
        let timeout = Float.min timeout (hard_deadline -. now) in
        (match Unix.select fds [] [] timeout with
        | readable, _, _ -> List.iter (fun fd -> pump_socket (find_driver fd)) readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        loop ()
  in
  loop ()
