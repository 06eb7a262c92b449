// Scalar-vs-SIMD differential fuzz for the GF(2^61 - 1) kernels in
// common/simd.h.
//
// The kernels' contract is byte parity: whichever backend BA_SIMD
// compiled in (AVX2 or scalar), every kernel must return the
// exact canonical value the naive per-term Fp operator chain produces.
// Each test sweeps three input shapes:
//   * clean    — uniform random canonical words;
//   * damaged  — adversarial extremes (p-1, 0, single-bit values, and
//                long all-(p-1) runs that maximize every deferred
//                accumulator simultaneously);
//   * boundary — lengths straddling the internal chunking: the 4-lane /
//                2-lane vector width, the 16-term carry-free block, and
//                the scalar path's 60-term fold chunk.
// Well over 10k words per kernel flow through the dispatched path, and
// every result is checked against both simd::scalar:: and the naive
// reference — so a scalar-only build still proves the scalar kernels
// against the operator chain.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/field.h"
#include "common/rng.h"
#include "common/simd.h"

namespace ba {
namespace {

// Lengths straddling every internal boundary: vector widths (2/4),
// carry-free block (16 terms), scalar fold chunk (60), plus long runs.
const std::size_t kLens[] = {0,  1,  2,  3,  4,  5,  7,  8,  15, 16,
                             17, 31, 32, 59, 60, 61, 64, 120, 121, 257};

std::vector<Fp> draw_words(Rng& rng, std::size_t n, int shape) {
  std::vector<Fp> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (shape) {
      case 0:  // clean: uniform random (Fp() reduces into the field)
        out[i] = Fp(rng.next());
        break;
      case 1:  // damaged: extremes that stress the deferred accumulators
        switch (rng.below(5)) {
          case 0: out[i] = Fp(Fp::kP - 1); break;
          case 1: out[i] = Fp(0); break;
          case 2: out[i] = Fp(std::uint64_t{1} << rng.below(61)); break;
          case 3: out[i] = Fp(Fp::kP - 1 - rng.below(4)); break;
          default: out[i] = Fp(rng.next()); break;
        }
        break;
      default:  // worst case: every word maximal
        out[i] = Fp(Fp::kP - 1);
        break;
    }
  }
  return out;
}

TEST(SimdKernels, DotModP) {
  Rng rng(0x51D0);
  for (int shape = 0; shape < 3; ++shape)
    for (std::size_t n : kLens)
      for (int rep = 0; rep < 12; ++rep) {
        const auto a = draw_words(rng, n, shape);
        const auto b = draw_words(rng, n, shape);
        const std::uint64_t init = Fp(rng.next()).value();
        Fp ref(init);
        for (std::size_t i = 0; i < n; ++i) ref += a[i] * b[i];
        const std::uint64_t got =
            simd::dot_mod_p(a.data(), b.data(), n, init);
        const std::uint64_t sc =
            simd::scalar::dot_mod_p(a.data(), b.data(), n, init);
        ASSERT_EQ(ref.value(), got) << "n=" << n << " shape=" << shape;
        ASSERT_EQ(ref.value(), sc) << "n=" << n << " shape=" << shape;
      }
}

TEST(SimdKernels, Dot4ModP) {
  Rng rng(0x51D4);
  for (int shape = 0; shape < 3; ++shape)
    for (std::size_t n : kLens)
      for (int rep = 0; rep < 6; ++rep) {
        const auto a = draw_words(rng, n, shape);
        std::vector<std::vector<Fp>> bs;
        std::uint64_t init[4], got[4], sc[4];
        for (int k = 0; k < 4; ++k) {
          bs.push_back(draw_words(rng, n, shape));
          init[k] = Fp(rng.next()).value();
        }
        simd::dot4_mod_p(a.data(), bs[0].data(), bs[1].data(), bs[2].data(),
                         bs[3].data(), n, init, got);
        simd::scalar::dot4_mod_p(a.data(), bs[0].data(), bs[1].data(),
                                 bs[2].data(), bs[3].data(), n, init, sc);
        for (int k = 0; k < 4; ++k) {
          Fp ref(init[k]);
          for (std::size_t i = 0; i < n; ++i) ref += a[i] * bs[k][i];
          ASSERT_EQ(ref.value(), got[k]) << "n=" << n << " lane=" << k;
          ASSERT_EQ(ref.value(), sc[k]) << "n=" << n << " lane=" << k;
        }
      }
}

TEST(SimdKernels, Dot4ModPChunkBoundarySweep) {
  // The fused dot4 kernel shares one column load across four row
  // accumulators and folds carry-free blocks every kBlockIters vector
  // iterations — every (vector width × block) edge plus the scalar tail
  // lives somewhere in 1..67 (AVX2 blocks span 16 words, and the
  // small-n dispatch cutoffs sit at 8 and 4). Sweep them all so no
  // boundary hides between the spot sizes in kLens.
  Rng rng(0x51D6);
  for (int shape = 0; shape < 3; ++shape)
    for (std::size_t n = 1; n <= 67; ++n)
      for (int rep = 0; rep < 2; ++rep) {
        const auto a = draw_words(rng, n, shape);
        std::vector<std::vector<Fp>> bs;
        std::uint64_t init[4], got[4], sc[4];
        for (int k = 0; k < 4; ++k) {
          bs.push_back(draw_words(rng, n, shape));
          init[k] = Fp(rng.next()).value();
        }
        simd::dot4_mod_p(a.data(), bs[0].data(), bs[1].data(), bs[2].data(),
                         bs[3].data(), n, init, got);
        simd::scalar::dot4_mod_p(a.data(), bs[0].data(), bs[1].data(),
                                 bs[2].data(), bs[3].data(), n, init, sc);
        for (int k = 0; k < 4; ++k) {
          Fp ref(init[k]);
          for (std::size_t i = 0; i < n; ++i) ref += a[i] * bs[k][i];
          ASSERT_EQ(ref.value(), got[k])
              << "n=" << n << " shape=" << shape << " lane=" << k;
          ASSERT_EQ(ref.value(), sc[k])
              << "n=" << n << " shape=" << shape << " lane=" << k;
        }
      }
}

TEST(SimdKernels, FnmaModP) {
  Rng rng(0x51D5);
  for (int shape = 0; shape < 3; ++shape)
    for (std::size_t n : kLens)
      for (int rep = 0; rep < 12; ++rep) {
        const auto base = draw_words(rng, n, shape);
        const auto in = draw_words(rng, n, shape);
        const Fp c = shape == 2 ? Fp(Fp::kP - 1) : Fp(rng.next());
        auto ref = base;
        for (std::size_t i = 0; i < n; ++i) ref[i] -= c * in[i];
        auto got = base;
        simd::fnma_mod_p(got.data(), in.data(), c, n);
        auto sc = base;
        simd::scalar::fnma_mod_p(sc.data(), in.data(), c, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(ref[i].value(), got[i].value()) << "n=" << n << " i=" << i;
          ASSERT_EQ(ref[i].value(), sc[i].value()) << "n=" << n << " i=" << i;
        }
      }
}

TEST(SimdKernels, HornerStepModP) {
  Rng rng(0x51D7);
  for (int shape = 0; shape < 3; ++shape)
    for (std::size_t n : kLens)
      for (int rep = 0; rep < 12; ++rep) {
        const auto start = draw_words(rng, n, shape);
        const auto x = draw_words(rng, n, shape);
        const Fp c = shape == 2 ? Fp(Fp::kP - 1) : Fp(rng.next());
        auto ref = start;
        for (std::size_t i = 0; i < n; ++i) ref[i] = ref[i] * x[i] + c;
        auto got = start;
        simd::horner_step_mod_p(got.data(), x.data(), c, n);
        auto sc = start;
        simd::scalar::horner_step_mod_p(sc.data(), x.data(), c, n);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(ref[i].value(), got[i].value()) << "n=" << n << " i=" << i;
          ASSERT_EQ(ref[i].value(), sc[i].value()) << "n=" << n << " i=" << i;
        }
      }
}

// Multi-step Horner chains stay canonical step over step (the Gao
// verification runs one step per coefficient over the same lanes).
TEST(SimdKernels, HornerChainMatchesPolyEval) {
  Rng rng(0x51D8);
  for (std::size_t m : {std::size_t{1}, std::size_t{5}, std::size_t{33}})
    for (std::size_t deg : {std::size_t{0}, std::size_t{3}, std::size_t{17}}) {
      const auto xs = draw_words(rng, m, 0);
      const auto coeffs = draw_words(rng, deg + 1, 1);
      std::vector<Fp> acc(m, Fp(0));
      for (std::size_t c = coeffs.size(); c-- > 0;)
        simd::horner_step_mod_p(acc.data(), xs.data(), coeffs[c], m);
      for (std::size_t i = 0; i < m; ++i)
        ASSERT_EQ(poly_eval(coeffs, xs[i]).value(), acc[i].value());
    }
}

}  // namespace
}  // namespace ba
