/* The two per-byte loops of the data path: the workload filler's symbol
   kernel behind Rng.fill_symbols/symbols_match, and the payload half of
   the frame checksum behind Wire.data_checksum.

   Both are [@@noalloc] externals: they allocate nothing, raise nothing
   and never enter the runtime, so they take no CAMLparam and may read
   OCaml strings in place. Their callers check every range before the
   call. Each produces exactly the bytes and checksums of the OCaml
   formulation documented beside its external. */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>

/* ---- symbol kernel ----

   [Rng.create seed] (splitmix64 seeding of xoshiro256**) followed by
   one [Rng.int _ bound] per symbol: draw the top 61 bits of the next
   output, reject draws at or above the largest multiple of [bound]
   below 2^61, and keep the remainder mod [bound]. */

static inline uint64_t splitmix(uint64_t z)
{
  z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
  z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
  return z ^ (z >> 31);
}

static inline uint64_t rotl(uint64_t x, int k)
{
  return (x << k) | (x >> (64 - k));
}

/* Writes the [len] symbols into [b] when [fill]; otherwise compares
   them with [b]'s bytes and returns 0 at the first difference. Forced
   inline so each entry point gets its own loop with [fill] constant,
   and one instance per entry point has [bound] = 36, the workload's
   alphabet, so its modulus is a multiply rather than a divide. */
static inline __attribute__((always_inline)) int
symbols(int fill, intnat seed, const unsigned char *alphabet, uint64_t bound,
        unsigned char *b, intnat len)
{
  const uint64_t golden = UINT64_C(0x9E3779B97F4A7C15);
  const uint64_t span = UINT64_C(1) << 61;
  const uint64_t limit = span - span % bound;
  /* the seed sign-extended to 64 bits, like [Int64.of_int] */
  uint64_t sm = (uint64_t)(int64_t)seed + golden;
  uint64_t s0 = splitmix(sm);
  uint64_t s1 = splitmix(sm += golden);
  uint64_t s2 = splitmix(sm += golden);
  uint64_t s3 = splitmix(sm + golden);
  intnat k = 0;
  while (k < len) {
    uint64_t r = rotl(s1 * 5, 7) * 9;
    uint64_t t = s1 << 17;
    s2 ^= s0;
    s3 ^= s1;
    s1 ^= s2;
    s0 ^= s3;
    s2 ^= t;
    s3 = rotl(s3, 45);
    uint64_t v = r >> 3;
    if (v < limit) {
      unsigned char c = alphabet[v % bound];
      if (fill) b[k] = c;
      else if (b[k] != c) return 0;
      k++;
    }
  }
  return 1;
}

static inline __attribute__((always_inline)) int
symbols_at(int fill, value seed, value alphabet, value b, value pos, value len)
{
  const unsigned char *a = (const unsigned char *)String_val(alphabet);
  uint64_t bound = caml_string_length(alphabet);
  unsigned char *dst = Bytes_val(b) + Long_val(pos);
  if (bound == 36) return symbols(fill, Long_val(seed), a, 36, dst, Long_val(len));
  return symbols(fill, Long_val(seed), a, bound, dst, Long_val(len));
}

value ba_fill_symbols(value seed, value alphabet, value b, value pos, value len)
{
  symbols_at(1, seed, alphabet, b, pos, len);
  return Val_unit;
}

value ba_symbols_match(value seed, value alphabet, value s, value pos, value len)
{
  return Val_bool(symbols_at(0, seed, alphabet, s, pos, len));
}

/* ---- checksum payload fold ----

   FNV-style multiply-xor over 7-byte little-endian chunks, the last
   chunk short: h <- ((h xor w) * prime) mod 2^62. The state is an OCaml
   int held below 2^62 ([land max_int]), and the low 62 bits of the
   64-bit product equal those of OCaml's 63-bit one. */

#define FNV_PRIME UINT64_C(0x100000001b3)
#define LOW62 ((UINT64_C(1) << 62) - 1)
#define LOW56 ((UINT64_C(1) << 56) - 1)

/* Eight bytes from [p] as a little-endian word, on any host. */
static inline uint64_t load_le64(const unsigned char *p)
{
  uint64_t w;
  memcpy(&w, p, sizeof w);
#ifdef ARCH_BIG_ENDIAN
  w = __builtin_bswap64(w);
#endif
  return w;
}

value ba_fnv_fold(value h, value s)
{
  const unsigned char *p = (const unsigned char *)String_val(s);
  size_t n = caml_string_length(s), i = 0;
  uint64_t acc = (uint64_t)Long_val(h);
  /* A full chunk is one 8-byte load masked to 7 bytes, so it needs a
     byte past its end; the final 1 to 7 bytes are gathered one by one. */
  for (; i + 8 <= n; i += 7)
    acc = ((acc ^ (load_le64(p + i) & LOW56)) * FNV_PRIME) & LOW62;
  if (i < n) {
    uint64_t w = 0;
    for (int shift = 0; i < n; i++, shift += 8) w |= (uint64_t)p[i] << shift;
    acc = ((acc ^ w) * FNV_PRIME) & LOW62;
  }
  return Val_long(acc);
}
