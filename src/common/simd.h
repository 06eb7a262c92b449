// Portable SIMD kernels for GF(2^61 - 1) bulk arithmetic.
//
// The protocol hot loops are dot-product or elementwise shapes over
// canonical 61-bit words: dot4_mod_p for the cached Vandermonde dealing
// matmul (crypto/scheme_cache.cpp), dot_mod_p for barycentric rows
// (common/field.cpp) and Gao's basis interpolation, fnma_mod_p for Gao's
// pseudo-division and exact division, horner_step_mod_p for its
// verification (crypto/gao.cpp). Each kernel has two backends:
//
//   * scalar   — unsigned __int128 accumulation with one Mersenne fold
//                per 60-term chunk (the proven deferred-reduction scheme
//                from the seed's dealing matmul);
//   * AVX2     — four 64-bit lanes; since AVX2 has no 64x64 multiply,
//                operands are split at bit 31 (a = a1*2^31 + a0, with
//                a1 < 2^30 because inputs are canonical < 2^61) and the
//                four 32x32 partial products are accumulated in three
//                per-lane sums (ll, lh+hl, hh) that stay below 2^64 for
//                four consecutive terms — the deferred reduction: no
//                carries, no compares inside the block, one fold per
//                16 terms using 2^61 = 1 and 2^62 = 2 (mod p).
//
// Contract: every kernel returns the exact canonical value in [0, p) —
// the same bytes the naive per-term Fp operator chain produces. Backends
// are interchangeable per kernel; tests/simd_kernels_test.cpp fuzzes the
// dispatched backend against simd::scalar:: on every build.
//
// Dispatch is compile-time: the BA_SIMD CMake option defines BA_SIMD=1
// and (on x86_64) compiles with -mavx2; __AVX2__ then picks the AVX2
// backend. Every other build (BA_SIMD=OFF, aarch64, any non-AVX2 target)
// takes the scalar dispatch at the bottom of this file.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/field.h"

#if defined(BA_SIMD) && defined(__AVX2__)
#define BA_SIMD_AVX2 1
#include <immintrin.h>
#endif

namespace ba {
namespace simd {

/// Human-readable active backend (bench/bench_micro.cpp records it).
inline const char* backend() {
#if defined(BA_SIMD_AVX2)
  return "avx2";
#else
  return "scalar";
#endif
}

// ------------------------------------------------- scalar reference --
//
// Always compiled: the differential fuzz tests diff the dispatched
// kernels against these, and the dispatched kernels fall back to them
// below the vector width and for loop tails.

namespace scalar {

/// Fold a 128-bit accumulator of raw 61x61-bit products to canonical
/// [0, p): 2^61 = 1 and 2^122 = 1 (mod p).
inline std::uint64_t fold128(unsigned __int128 acc) {
  const std::uint64_t lo = static_cast<std::uint64_t>(acc) & Fp::kP;
  const std::uint64_t mid = static_cast<std::uint64_t>(acc >> 61) & Fp::kP;
  const std::uint64_t hi = static_cast<std::uint64_t>(acc >> 122);
  std::uint64_t s = lo + mid + hi;  // < 3 * 2^61, fits
  s = (s & Fp::kP) + (s >> 61);
  if (s >= Fp::kP) s -= Fp::kP;
  return s;
}

/// Raw products of canonical words are < 2^122: 60 of them (plus one
/// folded carry-in < 2^62) stay below 2^128.
inline constexpr std::size_t kChunk = 60;

/// init + sum_i a[i]*b[i], canonical.
inline std::uint64_t dot_mod_p(const Fp* a, const Fp* b, std::size_t n,
                               std::uint64_t init) {
  unsigned __int128 acc = init;
  std::size_t i = 0;
  while (i < n) {
    const std::size_t stop = i + kChunk < n ? i + kChunk : n;
    for (; i < stop; ++i)
      acc += static_cast<unsigned __int128>(a[i].value()) * b[i].value();
    acc = fold128(acc);
  }
  return fold128(acc);
}

/// Four dot products sharing the left operand: out[k] = init[k] +
/// sum_i a[i]*bk[i]. Four independent accumulator chains (the seed's
/// dealing-matmul blocking) so the multiply unit stays saturated.
inline void dot4_mod_p(const Fp* a, const Fp* b0, const Fp* b1, const Fp* b2,
                       const Fp* b3, std::size_t n, const std::uint64_t* init,
                       std::uint64_t* out) {
  unsigned __int128 a0 = init[0], a1 = init[1], a2 = init[2], a3 = init[3];
  std::size_t i = 0;
  while (i < n) {
    const std::size_t stop = i + kChunk < n ? i + kChunk : n;
    for (; i < stop; ++i) {
      const unsigned __int128 v = a[i].value();
      a0 += v * b0[i].value();
      a1 += v * b1[i].value();
      a2 += v * b2[i].value();
      a3 += v * b3[i].value();
    }
    a0 = fold128(a0);
    a1 = fold128(a1);
    a2 = fold128(a2);
    a3 = fold128(a3);
  }
  out[0] = fold128(a0);
  out[1] = fold128(a1);
  out[2] = fold128(a2);
  out[3] = fold128(a3);
}

/// out[i] -= c * in[i] (mod p), canonical — the Euclid update shape.
inline void fnma_mod_p(Fp* out, const Fp* in, Fp c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] -= c * in[i];
}

/// acc[i] = acc[i] * x[i] + c (mod p) — one lane-parallel Horner step
/// (Gao's final verification evaluates the candidate at every point).
inline void horner_step_mod_p(Fp* acc, const Fp* x, Fp c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) acc[i] = acc[i] * x[i] + c;
}

}  // namespace scalar

#if defined(BA_SIMD_AVX2)

namespace detail {

// Canonical words split at bit 31: a = a1*2^31 + a0 with a0 < 2^31 and
// a1 < 2^30. Partial-product bounds per term:
//   ll = a0*b0        < 2^62   -> 4 terms  < 2^64
//   lh + hl           < 2^62   -> 4 terms  < 2^64
//   hh = a1*b1        < 2^60   -> 4 terms  < 2^62
// so a block of 4 vector iterations accumulates carry-free.
inline constexpr std::size_t kBlockIters = 4;

inline __m256i m31() { return _mm256_set1_epi64x((1LL << 31) - 1); }
inline __m256i mp() {
  return _mm256_set1_epi64x(static_cast<long long>(Fp::kP));
}

/// Per-lane value of (sll + smid*2^31 + shh*2^62) mod-ish p, bounded
/// < 3*2^61 + 2^34 < 2^63 (not canonical; caller keeps reducing).
inline __m256i fold_block(__m256i sll, __m256i smid, __m256i shh) {
  const __m256i P = mp();
  // sll < 2^64: 2^61 = 1.
  __m256i t = _mm256_add_epi64(_mm256_and_si256(sll, P),
                               _mm256_srli_epi64(sll, 61));
  // smid*2^31 = m1*2^61 + m0*2^31 = m1 + (m0 << 31), m1 < 2^34.
  const __m256i m30 = _mm256_set1_epi64x((1LL << 30) - 1);
  t = _mm256_add_epi64(t, _mm256_srli_epi64(smid, 30));
  t = _mm256_add_epi64(
      t, _mm256_slli_epi64(_mm256_and_si256(smid, m30), 31));
  // shh*2^62 = 2*shh with shh < 2^62, so u = shh<<1 < 2^63.
  const __m256i u = _mm256_slli_epi64(shh, 1);
  t = _mm256_add_epi64(t, _mm256_and_si256(u, P));
  t = _mm256_add_epi64(t, _mm256_srli_epi64(u, 61));
  return t;
}

/// Lane-wise (v & kP) + (v >> 61): maps v < 2^64 to < 2^61 + 8.
inline __m256i partial_reduce(__m256i v) {
  return _mm256_add_epi64(_mm256_and_si256(v, mp()),
                          _mm256_srli_epi64(v, 61));
}

/// Canonicalize v < 2^62: one conditional subtract of p. Values fit in
/// the signed positive range, so the signed compare is exact.
inline __m256i cond_sub_p(__m256i v) {
  const __m256i P = mp();
  const __m256i ge = _mm256_cmpgt_epi64(v, _mm256_sub_epi64(P, _mm256_set1_epi64x(1)));
  return _mm256_sub_epi64(v, _mm256_and_si256(ge, P));
}

/// Full canonical product of canonical lanes a*b: 31-bit split, fold,
/// partial reduce, conditional subtract. Result lanes in [0, p).
inline __m256i mul_mod_p(__m256i a, __m256i b) {
  const __m256i M = m31();
  const __m256i a0 = _mm256_and_si256(a, M), a1 = _mm256_srli_epi64(a, 31);
  const __m256i b0 = _mm256_and_si256(b, M), b1 = _mm256_srli_epi64(b, 31);
  const __m256i ll = _mm256_mul_epu32(a0, b0);
  const __m256i lh = _mm256_mul_epu32(a0, b1);
  const __m256i hl = _mm256_mul_epu32(a1, b0);
  const __m256i hh = _mm256_mul_epu32(a1, b1);
  // One product: fold_block bound applies with a single term.
  __m256i t = fold_block(ll, _mm256_add_epi64(lh, hl), hh);
  return cond_sub_p(partial_reduce(t));
}

/// Canonical lane-wise a - b for canonical inputs.
inline __m256i sub_mod_p(__m256i a, __m256i b) {
  return cond_sub_p(_mm256_sub_epi64(_mm256_add_epi64(a, mp()), b));
}

/// Canonical lane-wise a + b for canonical inputs.
inline __m256i add_mod_p(__m256i a, __m256i b) {
  return cond_sub_p(_mm256_add_epi64(a, b));
}

inline __m256i loadu(const Fp* p) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}
inline void storeu(Fp* p, __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
}

}  // namespace detail

inline std::uint64_t dot_mod_p(const Fp* a, const Fp* b, std::size_t n,
                               std::uint64_t init) {
  if (n < 8) return scalar::dot_mod_p(a, b, n, init);
  const __m256i M = detail::m31();
  __m256i run = _mm256_setzero_si256();  // lanes < 2^61 + 8 between blocks
  std::size_t i = 0;
  while (i + 4 <= n) {
    __m256i sll = _mm256_setzero_si256();
    __m256i smid = _mm256_setzero_si256();
    __m256i shh = _mm256_setzero_si256();
    for (std::size_t it = 0; it < detail::kBlockIters && i + 4 <= n;
         ++it, i += 4) {
      const __m256i va = detail::loadu(a + i), vb = detail::loadu(b + i);
      const __m256i a0 = _mm256_and_si256(va, M);
      const __m256i a1 = _mm256_srli_epi64(va, 31);
      const __m256i b0 = _mm256_and_si256(vb, M);
      const __m256i b1 = _mm256_srli_epi64(vb, 31);
      sll = _mm256_add_epi64(sll, _mm256_mul_epu32(a0, b0));
      smid = _mm256_add_epi64(smid, _mm256_add_epi64(_mm256_mul_epu32(a0, b1),
                                                     _mm256_mul_epu32(a1, b0)));
      shh = _mm256_add_epi64(shh, _mm256_mul_epu32(a1, b1));
    }
    // run + fold_block < 2^62 + 2^63 < 2^64; partial_reduce restores the
    // < 2^61 + 8 invariant.
    run = detail::partial_reduce(
        _mm256_add_epi64(run, detail::fold_block(sll, smid, shh)));
  }
  // Horizontal sum: 4 lanes < 2^62 plus init < 2^61, then the scalar
  // tail rides the 128-bit fold.
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), run);
  unsigned __int128 acc = static_cast<unsigned __int128>(lanes[0]) + lanes[1] +
                          lanes[2] + lanes[3] + init;
  for (; i < n; ++i)
    acc += static_cast<unsigned __int128>(a[i].value()) * b[i].value();
  return scalar::fold128(acc);
}

inline void dot4_mod_p(const Fp* a, const Fp* b0, const Fp* b1, const Fp* b2,
                       const Fp* b3, std::size_t n, const std::uint64_t* init,
                       std::uint64_t* out) {
  if (n < 8) return scalar::dot4_mod_p(a, b0, b1, b2, b3, n, init, out);
  // Fused four-row kernel: the shared a column is loaded and 31-bit-split
  // once per vector iteration and feeds all four rows' block accumulators.
  // Rows never mix, so each row's (sll, smid, shh) obeys exactly the
  // single-dot carry-free bounds above.
  const Fp* bs[4] = {b0, b1, b2, b3};
  const __m256i M = detail::m31();
  __m256i run[4] = {_mm256_setzero_si256(), _mm256_setzero_si256(),
                    _mm256_setzero_si256(), _mm256_setzero_si256()};
  std::size_t i = 0;
  while (i + 4 <= n) {
    __m256i sll[4], smid[4], shh[4];
    for (int k = 0; k < 4; ++k)
      sll[k] = smid[k] = shh[k] = _mm256_setzero_si256();
    for (std::size_t it = 0; it < detail::kBlockIters && i + 4 <= n;
         ++it, i += 4) {
      const __m256i va = detail::loadu(a + i);
      const __m256i a0 = _mm256_and_si256(va, M);
      const __m256i a1 = _mm256_srli_epi64(va, 31);
      for (int k = 0; k < 4; ++k) {
        const __m256i vb = detail::loadu(bs[k] + i);
        const __m256i bk0 = _mm256_and_si256(vb, M);
        const __m256i bk1 = _mm256_srli_epi64(vb, 31);
        sll[k] = _mm256_add_epi64(sll[k], _mm256_mul_epu32(a0, bk0));
        smid[k] = _mm256_add_epi64(
            smid[k], _mm256_add_epi64(_mm256_mul_epu32(a0, bk1),
                                      _mm256_mul_epu32(a1, bk0)));
        shh[k] = _mm256_add_epi64(shh[k], _mm256_mul_epu32(a1, bk1));
      }
    }
    for (int k = 0; k < 4; ++k)
      run[k] = detail::partial_reduce(_mm256_add_epi64(
          run[k], detail::fold_block(sll[k], smid[k], shh[k])));
  }
  alignas(32) std::uint64_t lanes[4];
  for (int k = 0; k < 4; ++k) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), run[k]);
    unsigned __int128 acc = static_cast<unsigned __int128>(lanes[0]) +
                            lanes[1] + lanes[2] + lanes[3] + init[k];
    for (std::size_t j = i; j < n; ++j)
      acc += static_cast<unsigned __int128>(a[j].value()) * bs[k][j].value();
    out[k] = scalar::fold128(acc);
  }
}

inline void fnma_mod_p(Fp* out, const Fp* in, Fp c, std::size_t n) {
  if (n < 4) return scalar::fnma_mod_p(out, in, c, n);
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(c.value()));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i prod = detail::mul_mod_p(vc, detail::loadu(in + i));
    detail::storeu(out + i, detail::sub_mod_p(detail::loadu(out + i), prod));
  }
  scalar::fnma_mod_p(out + i, in + i, c, n - i);
}

inline void horner_step_mod_p(Fp* acc, const Fp* x, Fp c, std::size_t n) {
  if (n < 4) return scalar::horner_step_mod_p(acc, x, c, n);
  const __m256i vc = _mm256_set1_epi64x(static_cast<long long>(c.value()));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i prod =
        detail::mul_mod_p(detail::loadu(acc + i), detail::loadu(x + i));
    detail::storeu(acc + i, detail::add_mod_p(prod, vc));
  }
  scalar::horner_step_mod_p(acc + i, x + i, c, n - i);
}

#else  // scalar dispatch

using scalar::dot4_mod_p;
using scalar::dot_mod_p;
using scalar::fnma_mod_p;
using scalar::horner_step_mod_p;

#endif

}  // namespace simd
}  // namespace ba
