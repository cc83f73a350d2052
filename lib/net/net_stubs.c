/* Socket calls for the UDP driver that allocate nothing on the OCaml
   heap: a non-blocking receive that reports its outcome as an int, a
   readiness wait over every driver's socket that reports a bitmask,
   and the wall clock in microseconds. Unix.recvfrom, Unix.select and
   Unix.gettimeofday cost an exception, a result tuple, lists or a
   boxed float per call. */

#define _GNU_SOURCE
#include <errno.h>
#include <poll.h>
#include <string.h>
#include <time.h>
#include <sys/types.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <arpa/inet.h>

#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>
#include <caml/socketaddr.h>

/* A raw peer address: its length at offset 0, the sockaddr bytes from
   offset 8, so they are 8-aligned inside a bytes block. */
#define RAW_ADDR_OFF 8
#define RAW_SIZE (RAW_ADDR_OFF + sizeof(struct sockaddr_storage))

/* Receive outcomes other than a length; the driver.ml constants match. */
#define RECV_AGAIN (-1)
#define RECV_INTR (-2)
#define RECV_REFUSED (-3)
#define RECV_ERRNO_BASE 256

value ba_net_raw_size(value unit)
{
  (void)unit;
  return Val_long(RAW_SIZE);
}

/* [recv fd buf raw]: one datagram into [buf], its sender into [raw].
   Returns its length, or a RECV_ code, or -(RECV_ERRNO_BASE + errno)
   for any other failure. MSG_DONTWAIT makes the call return at once,
   so it holds the runtime lock and may be [@@noalloc]: it neither
   allocates, raises nor blocks, so [buf] and [raw] cannot move. */
value ba_net_recv(value fd, value buf, value raw)
{
  unsigned char *r = Bytes_val(raw);
  struct sockaddr *from = (struct sockaddr *)(r + RAW_ADDR_OFF);
  socklen_t len = sizeof(struct sockaddr_storage);
  ssize_t n;
  if (caml_string_length(raw) < RAW_SIZE) return Val_long(-(RECV_ERRNO_BASE + EINVAL));
  n = recvfrom(Int_val(fd), Bytes_val(buf), caml_string_length(buf), MSG_DONTWAIT, from, &len);
  if (n >= 0) {
    memcpy(r, &len, sizeof len);
    return Val_long(n);
  }
  switch (errno) {
  case EAGAIN:
#if EWOULDBLOCK != EAGAIN
  case EWOULDBLOCK:
#endif
    return Val_long(RECV_AGAIN);
  case EINTR:
    return Val_long(RECV_INTR);
  case ECONNREFUSED:
    return Val_long(RECV_REFUSED);
  default:
    return Val_long(-(RECV_ERRNO_BASE + errno));
  }
}

/* Whether [raw] is the address [Unix.sockaddr] [peer] stands for, in
   exactly the fields caml_unix_alloc_sockaddr reads: an Internet
   family, port and address. Any other family reads as a change, so its
   sockaddr is built afresh, as Unix.recvfrom builds it. */
value ba_net_same_peer(value raw, value peer)
{
  const struct sockaddr *a = (const struct sockaddr *)(Bytes_val(raw) + RAW_ADDR_OFF);
  value ip;
  if (Is_long(peer) || Tag_val(peer) != 1) return Val_false; /* not ADDR_INET */
  ip = Field(peer, 0);
  if (a->sa_family == AF_INET && caml_string_length(ip) == 4) {
    const struct sockaddr_in *in = (const struct sockaddr_in *)a;
    return Val_bool(ntohs(in->sin_port) == Long_val(Field(peer, 1))
                    && memcmp(&in->sin_addr, String_val(ip), 4) == 0);
  }
#ifdef AF_INET6
  if (a->sa_family == AF_INET6 && caml_string_length(ip) == 16) {
    const struct sockaddr_in6 *in6 = (const struct sockaddr_in6 *)a;
    return Val_bool(ntohs(in6->sin6_port) == Long_val(Field(peer, 1))
                    && memcmp(&in6->sin6_addr, String_val(ip), 16) == 0);
  }
#endif
  return Val_false;
}

/* The Unix.sockaddr of a raw address; only when the peer changes. */
value ba_net_sockaddr(value raw)
{
  CAMLparam1(raw);
  union sock_addr_union addr;
  socklen_t len;
  memcpy(&len, Bytes_val(raw), sizeof len);
  if (len > sizeof addr) len = sizeof addr;
  memcpy(&addr, Bytes_val(raw) + RAW_ADDR_OFF, len);
  CAMLreturn(caml_unix_alloc_sockaddr(&addr, len, -1));
}

value ba_net_raise_errno(value code, value cmd)
{
  caml_unix_error(Int_val(code), String_val(cmd), Nothing);
  return Val_unit;
}

/* Socket i of [fds] is readable, or has an error queued (a bounced
   send's ECONNREFUSED, as select reports it). */
#define READY (POLLIN | POLLERR | POLLHUP)
#define MAX_FDS 62

/* [wait fds timeout_us]: block until a socket of [fds] is ready or the
   timeout passes, with the runtime lock released. Returns the bitmask
   of ready sockets (bit i for fds.(i)), or -1 when a signal cut the
   wait short. */
value ba_net_wait(value fds, value timeout_us)
{
  struct pollfd p[MAX_FDS];
  mlsize_t n = Wosize_val(fds), i;
  long us = Long_val(timeout_us);
  long mask = 0;
  int rc;
  if (n > MAX_FDS) caml_unix_error(EINVAL, "Driver.wait", Nothing);
  if (us < 0) us = 0;
  for (i = 0; i < n; i++) {
    p[i].fd = Int_val(Field(fds, i));
    p[i].events = POLLIN;
    p[i].revents = 0;
  }
  caml_enter_blocking_section();
#ifdef __linux__
  {
    struct timespec ts = { us / 1000000, (us % 1000000) * 1000 };
    rc = ppoll(p, n, &ts, NULL);
  }
#else
  rc = poll(p, n, (int)((us + 999) / 1000));
#endif
  caml_leave_blocking_section();
  if (rc < 0) {
    if (errno == EINTR) return Val_long(-1);
    caml_uerror("Driver.wait", Nothing);
  }
  for (i = 0; i < n; i++) {
    if (p[i].revents & POLLNVAL) caml_unix_error(EBADF, "Driver.wait", Nothing);
    if (p[i].revents & READY) mask |= 1L << i;
  }
  return Val_long(mask);
}

/* Wall-clock microseconds since the epoch, the clock
   Unix.gettimeofday reads. */
value ba_net_now_us(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_REALTIME, &ts);
  return Val_long((long)ts.tv_sec * 1000000L + ts.tv_nsec / 1000);
}
