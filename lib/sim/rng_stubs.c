/* The Bernoulli scan behind Rng.first_below: splitmix64 draws from a
   given state until one's top 53 bits are below a threshold.

   Two facts let the scan run in C and in parallel lanes with results
   identical to the OCaml generator, draw for draw:
   - draw k (0-based) is mix (s0 + (k + 1) * GAMMA), a function of k
     alone, so any number of draws can be computed independently;
   - for 0 < threshold < 2^53, (z >> 11) < threshold exactly when
     z < threshold << 11 (unsigned), so no shift is needed per draw.
   Everything is integer arithmetic modulo 2^64, so every host gives the
   same result.  The entry point picks the AVX-512 kernel when the CPU has
   AVX-512F and AVX-512DQ (libgcc fills __cpu_model in a constructor),
   otherwise the scalar one.  Both kernels are exported under their own
   names so tests can check each and profiles name them. */

#include <stdint.h>
#include <caml/mlvalues.h>

#define GAMMA 0x9E3779B97F4A7C15ULL
#define M1 0xBF58476D1CE4E5B9ULL
#define M2 0x94D049BB133111EBULL

static inline uint64_t mix(uint64_t z)
{
  z = (z ^ (z >> 30)) * M1;
  z = (z ^ (z >> 27)) * M2;
  return z ^ (z >> 31);
}

/* Draws n .. limit-1 from s, the state before draw n; limit when none
   is below bound.  Inlined into both kernels, so a host profile charges
   each kernel's samples to its own exported name. */
static inline __attribute__((always_inline))
intnat scan_scalar(uint64_t s, uint64_t bound, intnat n, intnat limit)
{
  for (; n + 4 <= limit; n += 4) {
    uint64_t a = mix(s + GAMMA), b = mix(s + 2 * GAMMA);
    uint64_t c = mix(s + 3 * GAMMA), d = mix(s + 4 * GAMMA);
    s += 4 * GAMMA;
    if (a < bound) return n;
    if (b < bound) return n + 1;
    if (c < bound) return n + 2;
    if (d < bound) return n + 3;
  }
  for (; n < limit; n++) {
    s += GAMMA;
    if (mix(s) < bound) return n;
  }
  return limit;
}

/* The cases no draw has to be made for: [*out] is the answer when this
   returns 1.  Otherwise 0 < threshold < 2^53, and [*bound] is the
   threshold on the whole 64-bit draw. */
static int trivial(intnat threshold, intnat limit, intnat *out, uint64_t *bound)
{
  if (limit <= 0) *out = 0;
  else if (threshold <= 0) *out = limit;
  else if (threshold >= (intnat)1 << 53) *out = 0;
  else {
    *bound = (uint64_t)threshold << 11;
    return 0;
  }
  return 1;
}

__attribute__((noinline))
intnat skipit_rng_first_below_scalar(int64_t state, intnat threshold, intnat limit)
{
  intnat out;
  uint64_t bound;
  if (trivial(threshold, limit, &out, &bound)) return out;
  return scan_scalar((uint64_t)state, bound, 0, limit);
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

__attribute__((target("avx512f,avx512dq"), noinline))
intnat skipit_rng_first_below_avx512(int64_t state, intnat threshold, intnat limit)
{
  intnat out, n;
  uint64_t bound;
  if (trivial(threshold, limit, &out, &bound)) return out;
  const __m512i m1 = _mm512_set1_epi64((long long)M1);
  const __m512i m2 = _mm512_set1_epi64((long long)M2);
  const __m512i below = _mm512_set1_epi64((long long)bound);
  const __m512i step = _mm512_set1_epi64((long long)(8 * GAMMA));
  /* Lane k holds the state draw n + k mixes: s0 + (n + k + 1) * GAMMA. */
  __m512i s = _mm512_add_epi64(
      _mm512_set1_epi64(state),
      _mm512_mullo_epi64(_mm512_set_epi64(8, 7, 6, 5, 4, 3, 2, 1),
                         _mm512_set1_epi64((long long)GAMMA)));
  for (n = 0; n + 8 <= limit; n += 8) {
    __m512i z = s;
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 30)), m1);
    z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64(z, 27)), m2);
    z = _mm512_xor_si512(z, _mm512_srli_epi64(z, 31));
    __mmask8 hit = _mm512_cmplt_epu64_mask(z, below);
    if (hit) return n + __builtin_ctz(hit);
    s = _mm512_add_epi64(s, step);
  }
  return scan_scalar((uint64_t)state + (uint64_t)n * GAMMA, bound, n, limit);
}

static int avx512_usable(void)
{
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq");
}
#else
/* No AVX-512 kernel on this target: the name stays linkable for tests,
   which skip it because [skipit_rng_avx512_usable] is false. */
intnat skipit_rng_first_below_avx512(int64_t state, intnat threshold, intnat limit)
{
  return skipit_rng_first_below_scalar(state, threshold, limit);
}

static int avx512_usable(void)
{
  return 0;
}
#endif

intnat skipit_rng_first_below(int64_t state, intnat threshold, intnat limit)
{
  if (avx512_usable())
    return skipit_rng_first_below_avx512(state, threshold, limit);
  return skipit_rng_first_below_scalar(state, threshold, limit);
}

/* Bytecode versions of the entry points above, for boxed arguments. */
#define BYTE(name)                                                        \
  value name##_byte(value state, value threshold, value limit)            \
  {                                                                       \
    return Val_long(name(Int64_val(state), Long_val(threshold), Long_val(limit))); \
  }
BYTE(skipit_rng_first_below)
BYTE(skipit_rng_first_below_scalar)
BYTE(skipit_rng_first_below_avx512)

value skipit_rng_avx512_usable(value unit)
{
  (void)unit;
  return Val_bool(avx512_usable());
}
