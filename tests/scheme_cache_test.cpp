// Tests for the cached share-pipeline crypto (crypto/scheme_cache.h) and
// the Gao decoder (crypto/gao.h): cached dealing must be byte-identical to
// the reference Horner path, and Gao must agree with Berlekamp–Welch on
// every error pattern inside the unique-decoding budget.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "common/pool.h"
#include "crypto/berlekamp_welch.h"
#include "crypto/gao.h"
#include "crypto/iterated.h"
#include "crypto/scheme_cache.h"
#include "crypto/shamir.h"

// Heap-allocation counter for the zero-allocation test: every global
// operator new in this binary bumps it.
namespace ba::alloc_count {
std::atomic<std::uint64_t> news{0};
}  // namespace ba::alloc_count

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  ba::alloc_count::news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace ba {
namespace {

std::vector<Fp> random_secret(Rng& rng, std::size_t words) {
  std::vector<Fp> s(words);
  for (auto& w : s) w = Fp(rng.next());
  return s;
}

// --------------------------------------------------------- CachedScheme --

TEST(SchemeCache, DealingByteIdenticalToHornerAcrossGrid) {
  // Same Rng seed through both paths: every share of every word must match
  // exactly, for word counts that exercise the blocked kernel (multiples
  // of four), its remainder loop, and the empty secret.
  SchemeCache cache;
  // {80, 70} exercises the deferred-reduction chunk boundary (> 60 terms).
  const std::size_t grid[][2] = {{1, 0}, {2, 1},  {4, 1},  {5, 2},
                                 {8, 2}, {9, 3},  {12, 3}, {16, 8},
                                 {32, 10}, {33, 16}, {48, 32}, {80, 70}};
  for (const auto& nt : grid) {
    const std::size_t n = nt[0], t = nt[1];
    for (std::size_t words : {0u, 1u, 3u, 4u, 7u, 64u}) {
      Rng seed_rng(1000 + n * 31 + t * 7 + words);
      auto secret = random_secret(seed_rng, words);
      Rng a(42 + n + t + words), b(42 + n + t + words);
      auto reference = ShamirScheme(n, t).deal(secret, a);
      auto cached = cache.scheme(n, t).deal(secret, b);
      ASSERT_EQ(reference.size(), cached.size());
      for (std::size_t i = 0; i < reference.size(); ++i) {
        EXPECT_EQ(reference[i].x, cached[i].x);
        ASSERT_EQ(reference[i].ys.size(), cached[i].ys.size());
        for (std::size_t w = 0; w < words; ++w)
          EXPECT_EQ(reference[i].ys[w].value(), cached[i].ys[w].value())
              << "n=" << n << " t=" << t << " share=" << i << " word=" << w;
      }
      // Both paths must leave the Rng in the same state.
      EXPECT_EQ(a.next(), b.next());
    }
  }
}

TEST(SchemeCache, DealIntoReusesStorage) {
  SchemeCache cache;
  const CachedScheme& scheme = cache.scheme(9, 3);
  Rng rng(7);
  std::vector<VectorShare> out;
  scheme.deal_into(random_secret(rng, 8), rng, out);
  ASSERT_EQ(out.size(), 9u);
  const Fp* storage = out[0].ys.data();
  scheme.deal_into(random_secret(rng, 8), rng, out);  // same shape: no realloc
  EXPECT_EQ(out[0].ys.data(), storage);
  EXPECT_EQ(out[0].ys.size(), 8u);
}

TEST(SchemeCache, ReturnsStableReferences) {
  SchemeCache cache;
  const CachedScheme* first = &cache.scheme(8, 2);
  for (std::size_t n = 2; n < 40; ++n) cache.scheme(n, n / 4 + 1);
  EXPECT_EQ(&cache.scheme(8, 2), first);
  // Decoder references are stable below the eviction bound.
  std::vector<Fp> xs{Fp(1), Fp(2), Fp(3), Fp(4), Fp(5)};
  const RobustDecoder* dec = &cache.robust(xs, 1);
  for (std::size_t i = 0; i < 30; ++i) {
    std::vector<Fp> other{Fp(10 + i), Fp(20 + i), Fp(30 + i)};
    cache.robust(other, 1);
  }
  EXPECT_EQ(&cache.robust(xs, 1), dec);
}

TEST(SchemeCache, DecoderMapEvictionStillDecodes) {
  // Push past kMaxDecoders distinct point sets: the map resets and keeps
  // working (entries rebuild on demand).
  SchemeCache cache;
  Rng rng(55);
  ShamirScheme scheme(5, 1);
  auto secret = random_secret(rng, 2);
  auto shares = scheme.deal(secret, rng);
  std::vector<Fp> xs(5);
  for (std::size_t i = 0; i < 5; ++i) xs[i] = Fp(shares[i].x);
  for (std::size_t i = 0; i < SchemeCache::kMaxDecoders + 8; ++i) {
    std::vector<Fp> other{Fp(2 + i), Fp(500000 + i), Fp(1000000 + i)};
    cache.robust(other, 1);
  }
  auto rec = cache.robust(xs, 1).reconstruct(shares);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(*rec, secret);
}

TEST(SchemeCache, CachedRedealMatchesPlainRedeal) {
  SchemeCache cache;
  Rng rng(11);
  VectorShare parent;
  parent.x = 3;
  parent.ys = random_secret(rng, 6);
  Rng a(5), b(5);
  auto plain = redeal(parent, 7, 3, a);
  auto cached = redeal(parent, 7, 3, b, cache);
  ASSERT_EQ(plain.size(), cached.size());
  for (std::size_t i = 0; i < plain.size(); ++i)
    EXPECT_EQ(plain[i].ys, cached[i].ys);
}

// ---------------------------------------------------------------- Gao --

TEST(Gao, AgreesWithBerlekampWelchOnRandomErrorPatterns) {
  Rng rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t degree = 1 + rng.below(6);
    const std::size_t budget = rng.below(5);
    const std::size_t m = degree + 1 + 2 * budget + rng.below(3);
    std::vector<Fp> coeffs(degree + 1);
    for (auto& c : coeffs) c = Fp(rng.next());
    std::vector<Fp> xs(m), ys(m);
    for (std::size_t i = 0; i < m; ++i) {
      xs[i] = Fp(i * 7 + 1);
      ys[i] = poly_eval(coeffs, xs[i]);
    }
    const std::size_t max_errors = (m - degree - 1) / 2;
    const std::size_t errors = rng.below(max_errors + 1);
    auto bad = rng.sample_without_replacement(m, errors);
    for (auto b : bad) ys[b] = Fp(rng.next());
    auto via_gao = gao_decode(xs, ys, degree, max_errors);
    auto via_bw = berlekamp_welch(xs, ys, degree, max_errors);
    ASSERT_TRUE(via_gao.has_value()) << "trial " << trial;
    ASSERT_TRUE(via_bw.has_value()) << "trial " << trial;
    // The unique decoded polynomial must agree coefficient by coefficient.
    for (std::size_t c = 0; c <= degree; ++c) {
      const Fp g = c < via_gao->size() ? (*via_gao)[c] : Fp(0);
      const Fp w = c < via_bw->size() ? (*via_bw)[c] : Fp(0);
      EXPECT_EQ(g.value(), w.value()) << "trial " << trial << " coeff " << c;
    }
  }
}

TEST(Gao, SharedContextAmortizesAcrossWords) {
  Rng rng(22);
  std::vector<Fp> xs(12);
  for (std::size_t i = 0; i < 12; ++i) xs[i] = Fp(i + 1);
  GaoContext ctx(xs);
  for (int word = 0; word < 20; ++word) {
    std::vector<Fp> coeffs(4);
    for (auto& c : coeffs) c = Fp(rng.next());
    std::vector<Fp> ys(12);
    for (std::size_t i = 0; i < 12; ++i) ys[i] = poly_eval(coeffs, xs[i]);
    auto bad = rng.sample_without_replacement(12, 3);
    for (auto b : bad) ys[b] = Fp(rng.next());
    auto p = ctx.decode(ys, 3, 4);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ((*p)[0], coeffs[0]);
  }
}

TEST(Gao, RejectsBeyondBudgetLikeBerlekampWelch) {
  // With a budget below the actual error count, the final verification
  // must reject (same contract as berlekamp_welch).
  Rng rng(23);
  std::vector<Fp> coeffs{Fp(3), Fp(5)};
  const std::size_t m = 8;
  std::vector<Fp> xs(m), ys(m);
  for (std::size_t i = 0; i < m; ++i) {
    xs[i] = Fp(i + 1);
    ys[i] = poly_eval(coeffs, xs[i]);
  }
  ys[0] += Fp(1);
  ys[3] += Fp(2);
  EXPECT_FALSE(gao_decode(xs, ys, 1, 1).has_value());
  EXPECT_TRUE(gao_decode(xs, ys, 1, 2).has_value());
}

TEST(Gao, ZeroCodewordWithErrorsDecodes) {
  // Regression: f = 0 makes the Euclid remainder sequence bottom out at
  // the zero polynomial; the decoder must treat that as the zero-message
  // candidate (and verify it), not as a failure — Berlekamp–Welch decodes
  // these inputs.
  std::vector<Fp> xs{Fp(1), Fp(2), Fp(3), Fp(4), Fp(5)};
  std::vector<Fp> ys{Fp(0), Fp(7), Fp(0), Fp(0), Fp(0)};
  for (std::size_t degree : {0u, 1u}) {
    auto via_gao = gao_decode(xs, ys, degree, (5 - degree - 1) / 2);
    auto via_bw = berlekamp_welch(xs, ys, degree, (5 - degree - 1) / 2);
    ASSERT_TRUE(via_bw.has_value());
    ASSERT_TRUE(via_gao.has_value()) << "degree " << degree;
    EXPECT_EQ((*via_gao)[0], Fp(0));
    EXPECT_EQ((*via_bw)[0], Fp(0));
  }
  // Beyond the budget the zero candidate must still be rejected.
  std::vector<Fp> noisy{Fp(0), Fp(7), Fp(8), Fp(9), Fp(0)};
  EXPECT_FALSE(gao_decode(xs, noisy, 0, 2).has_value());
}

TEST(Gao, ZeroErrorsIsPlainInterpolation) {
  std::vector<Fp> coeffs{Fp(9), Fp(5), Fp(2)};
  std::vector<Fp> xs, ys;
  for (std::size_t i = 1; i <= 7; ++i) {
    xs.push_back(Fp(i));
    ys.push_back(poly_eval(coeffs, Fp(i)));
  }
  auto p = gao_decode(xs, ys, 2, 2);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ((*p)[0], Fp(9));
  EXPECT_EQ((*p)[1], Fp(5));
  EXPECT_EQ((*p)[2], Fp(2));
}

TEST(Gao, RejectsDuplicatePoints) {
  std::vector<Fp> xs{Fp(1), Fp(1), Fp(2)};
  std::vector<Fp> ys{Fp(1), Fp(1), Fp(2)};
  EXPECT_THROW(GaoContext ctx(xs), std::logic_error);
  (void)ys;
}

TEST(Gao, BasisInterpolantEqualsNewtonInterpolation) {
  // The cached Lagrange basis must produce exactly interpolate_coeffs'
  // monomial coefficients, on point sets with and without x = 0.
  Rng rng(24);
  for (std::size_t m = 1; m <= 40; ++m)
    for (int rep = 0; rep < 4; ++rep) {
      std::vector<Fp> xs;
      if (rep % 2 == 1) xs.push_back(Fp(0));
      while (xs.size() < m) {
        const Fp x(rep < 2 ? rng.below(4 * m) + 1 : rng.next());
        bool fresh = true;
        for (const Fp& y : xs) fresh = fresh && y != x;
        if (fresh) xs.push_back(x);
      }
      std::swap(xs.front(), xs[rng.below(m)]);
      std::vector<Fp> ys(m);
      for (auto& y : ys) y = Fp(rng.next());
      GaoContext ctx(xs);
      std::vector<Fp> got(m);
      ctx.interpolate(ys.data(), got.data());
      EXPECT_EQ(got, interpolate_coeffs(xs, ys)) << "m=" << m << " rep "
                                                 << rep;
    }
}

TEST(Gao, ReusedScratchMatchesFreshScratch) {
  // One scratch carried across a clean word, a word beyond the budget,
  // messages of lower degree than the last one and point sets of other
  // sizes must answer exactly like a fresh scratch per call: no stale
  // coefficient may leak between decodes.
  Rng rng(25);
  GaoContext::Scratch reused;
  // Decode a word whose message has `terms` coefficients (0: the zero
  // polynomial) with `errors` corrupted points.
  const auto check = [&](const GaoContext& ctx, std::size_t terms,
                         std::size_t errors, std::size_t degree,
                         std::size_t budget) {
    const std::vector<Fp>& xs = ctx.points();
    std::vector<Fp> coeffs(degree + 1, Fp(0));
    for (std::size_t c = 0; c < terms; ++c) coeffs[c] = Fp(rng.next());
    std::vector<Fp> ys(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
      ys[i] = poly_eval(coeffs, xs[i]);
    for (auto b : rng.sample_without_replacement(xs.size(), errors))
      ys[b] += Fp(1 + rng.below(1000));
    GaoContext::Scratch fresh;
    const bool a = ctx.decode(ys.data(), degree, budget, reused);
    const bool b = ctx.decode(ys.data(), degree, budget, fresh);
    ASSERT_EQ(a, errors <= budget) << "terms " << terms << " errors "
                                   << errors;
    ASSERT_EQ(a, b);
    if (a) {
      EXPECT_EQ(reused.msg, coeffs);
      EXPECT_EQ(fresh.msg, coeffs);
    }
    EXPECT_EQ(ctx.decode(ys, degree, budget).has_value(), a);
  };
  std::vector<Fp> xs12(12), xs7(7), xs31(31);
  for (std::size_t i = 0; i < 31; ++i) xs31[i] = Fp(3 * i + 2);
  for (std::size_t i = 0; i < 12; ++i) xs12[i] = Fp(i + 1);
  for (std::size_t i = 0; i < 7; ++i) xs7[i] = Fp(11 * i + 5);
  const GaoContext c12(xs12), c7(xs7), c31(xs31);
  check(c12, 4, 0, 3, 4);   // clean
  check(c12, 4, 4, 3, 4);   // full budget
  check(c12, 4, 6, 3, 4);   // beyond the budget
  check(c12, 4, 3, 3, 4);
  check(c12, 2, 4, 3, 4);   // lower-degree message after a full one
  check(c12, 0, 3, 3, 4);   // zero codeword plus errors
  check(c12, 4, 3, 3, 1);   // tight budget: disagreements counted
  check(c7, 3, 2, 2, 2);    // smaller m
  check(c31, 9, 11, 8, 11);  // larger m
  check(c31, 9, 14, 8, 11);
  check(c12, 4, 3, 3, 4);   // back to the first shape
  check(c7, 1, 3, 0, 3);
}

TEST(Gao, AgreesWithBerlekampWelchAtProtocolShapeForEveryErrorWeight) {
  // m = 12 shares, t = 3 (degree 3), budget 4: the sendDown shape. Gao
  // and Berlekamp–Welch must agree on accept/reject and on the decoded
  // polynomial for every error weight 0..12, beyond the budget included,
  // and also under a tighter budget of 2 (where Gao must count the
  // disagreements instead of bounding them by deg v).
  Rng rng(26);
  constexpr std::size_t kM = 12, kDegree = 3, kBudget = 4;
  std::vector<Fp> xs(kM);
  for (std::size_t i = 0; i < kM; ++i) xs[i] = Fp(i + 1);
  const GaoContext ctx(xs);
  GaoContext::Scratch scratch;
  for (std::size_t weight = 0; weight <= kM; ++weight)
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<Fp> coeffs(kDegree + 1);
      for (auto& c : coeffs) c = Fp(trial % 7 == 0 ? 0 : rng.next());
      std::vector<Fp> ys(kM);
      for (std::size_t i = 0; i < kM; ++i) ys[i] = poly_eval(coeffs, xs[i]);
      for (auto b : rng.sample_without_replacement(kM, weight))
        ys[b] += Fp(1 + rng.below(Fp::kP - 1));
      for (std::size_t budget : {kBudget, std::size_t{2}}) {
        const auto bw = berlekamp_welch(xs, ys, kDegree, budget);
        const bool ok = ctx.decode(ys.data(), kDegree, budget, scratch);
        ASSERT_EQ(ok, bw.has_value())
            << "budget " << budget << " weight " << weight << " trial "
            << trial;
        if (weight <= budget) {
          ASSERT_TRUE(ok);
          EXPECT_EQ(scratch.msg, coeffs);
        }
        if (!ok) continue;
        for (std::size_t c = 0; c <= kDegree; ++c) {
          const Fp w = c < bw->size() ? (*bw)[c] : Fp(0);
          EXPECT_EQ(scratch.msg[c], w)
              << "budget " << budget << " weight " << weight << " coeff "
              << c;
        }
      }
    }
}

// ------------------------------------------------- BatchedBerlekampWelch --

TEST(BatchedBerlekampWelch, MatchesPlainBerlekampWelchPerWord) {
  // Same accept/reject and the same polynomial as the per-word solver,
  // across error weights from clean to beyond the budget.
  Rng rng(24);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t degree = 1 + rng.below(5);
    const std::size_t budget = 1 + rng.below(4);
    const std::size_t m = degree + 1 + 2 * budget + rng.below(3);
    std::vector<Fp> xs(m);
    for (std::size_t i = 0; i < m; ++i) xs[i] = Fp(i * 11 + 3);
    const std::size_t max_errors = (m - degree - 1) / 2;
    BatchedBerlekampWelch batched(xs, degree, max_errors);
    for (int word = 0; word < 8; ++word) {
      std::vector<Fp> coeffs(degree + 1);
      for (auto& c : coeffs) c = Fp(rng.next());
      std::vector<Fp> ys(m);
      for (std::size_t i = 0; i < m; ++i) ys[i] = poly_eval(coeffs, xs[i]);
      const std::size_t errors = rng.below(max_errors + 2);
      for (auto b : rng.sample_without_replacement(m, errors))
        ys[b] = Fp(rng.next());
      auto via_plain = berlekamp_welch(xs, ys, degree, max_errors);
      auto via_batched = batched.decode(ys);
      ASSERT_EQ(via_plain.has_value(), via_batched.has_value())
          << "trial " << trial << " word " << word << " errors " << errors;
      if (!via_plain) continue;
      for (std::size_t c = 0; c <= degree; ++c) {
        const Fp p = c < via_plain->size() ? (*via_plain)[c] : Fp(0);
        const Fp b = c < via_batched->size() ? (*via_batched)[c] : Fp(0);
        EXPECT_EQ(p.value(), b.value()) << "trial " << trial;
      }
    }
  }
}

TEST(BatchedBerlekampWelch, ZeroCodewordAndDamagedWordsMatchGao) {
  // The regression shapes the Gao tests pin down, cross-checked through
  // the shared factorization: an all-zero message under errors decodes to
  // zero, and beyond-budget damage rejects.
  std::vector<Fp> xs{Fp(1), Fp(2), Fp(3), Fp(4), Fp(5)};
  for (std::size_t degree : {0u, 1u}) {
    const std::size_t max_errors = (5 - degree - 1) / 2;
    BatchedBerlekampWelch batched(xs, degree, max_errors);
    std::vector<Fp> ys{Fp(0), Fp(7), Fp(0), Fp(0), Fp(0)};
    auto via_batched = batched.decode(ys);
    auto via_gao = gao_decode(xs, ys, degree, max_errors);
    ASSERT_TRUE(via_batched.has_value()) << "degree " << degree;
    ASSERT_TRUE(via_gao.has_value());
    EXPECT_EQ((*via_batched)[0], Fp(0));
  }
  BatchedBerlekampWelch b0(xs, 0, 2);
  std::vector<Fp> noisy{Fp(0), Fp(7), Fp(8), Fp(9), Fp(0)};
  EXPECT_FALSE(b0.decode(noisy).has_value());
  EXPECT_FALSE(gao_decode(xs, noisy, 0, 2).has_value());
}

TEST(BatchedBerlekampWelch, RejectsDuplicatePoints) {
  std::vector<Fp> xs{Fp(1), Fp(1), Fp(2), Fp(3), Fp(4)};
  EXPECT_THROW(BatchedBerlekampWelch(xs, 0, 1), std::logic_error);
}

// -------------------------------------------------------- RobustDecoder --

TEST(RobustDecoder, MatchesRobustReconstructUnderCorruption) {
  Rng rng(31);
  SchemeCache cache;
  ShamirScheme scheme(9, 3);
  for (int trial = 0; trial < 40; ++trial) {
    auto secret = random_secret(rng, 5);
    auto shares = scheme.deal(secret, rng);
    const std::size_t errors = rng.below(3);  // budget is (9-4)/2 = 2
    auto bad = rng.sample_without_replacement(9, errors);
    for (auto b : bad)
      for (auto& y : shares[b].ys) y = Fp(rng.next());
    std::vector<Fp> xs(9);
    for (std::size_t i = 0; i < 9; ++i) xs[i] = Fp(shares[i].x);
    auto via_entry = robust_reconstruct(shares, 3);
    auto via_cache = cache.robust(xs, 3).reconstruct(shares);
    ASSERT_EQ(via_entry.has_value(), via_cache.has_value());
    ASSERT_TRUE(via_entry.has_value());
    EXPECT_EQ(*via_entry, *via_cache);
    EXPECT_EQ(*via_entry, secret);
  }
}

TEST(RobustDecoder, PrecomputeImmutableAfterConstruction) {
  // The const/scratch split's contract: no call path — clean fast-path
  // words, damaged words (which build the Gao context), scratch-explicit
  // or convenience overloads — may mutate the shared precompute. A worker
  // would otherwise read a torn dealing matrix or check row.
  Rng rng(33);
  SchemeCache cache;
  ShamirScheme scheme(11, 3);
  auto secret = random_secret(rng, 4);
  auto shares = scheme.deal(secret, rng);
  std::vector<Fp> xs(11);
  for (std::size_t i = 0; i < 11; ++i) xs[i] = Fp(shares[i].x);

  const RobustDecoder& dec = cache.robust(xs, 3);
  const std::uint64_t fp0 = dec.precompute_fingerprint();
  ASSERT_TRUE(dec.reconstruct(shares).has_value());  // clean path
  EXPECT_EQ(dec.precompute_fingerprint(), fp0);
  auto damaged = shares;
  for (auto& y : damaged[2].ys) y = Fp(rng.next());
  for (auto& y : damaged[6].ys) y = Fp(rng.next());
  ASSERT_TRUE(dec.reconstruct(damaged).has_value());  // builds Gao context
  // The first damaged word mixes the Gao precompute in; from then on the
  // digest covers it and must stay fixed.
  const std::uint64_t fp1 = dec.precompute_fingerprint();
  EXPECT_NE(fp1, fp0);
  ASSERT_TRUE(dec.reconstruct(damaged).has_value());
  EXPECT_EQ(dec.precompute_fingerprint(), fp1);
  RobustDecoder::Scratch scratch;
  ASSERT_TRUE(dec.reconstruct(damaged, scratch).has_value());
  EXPECT_EQ(dec.precompute_fingerprint(), fp1);

  const CachedScheme& cs = cache.scheme(11, 3);
  const std::uint64_t sfp0 = cs.precompute_fingerprint();
  Rng deal_rng(5);
  std::vector<VectorShare> out;
  cs.deal_into(secret, deal_rng, out);
  CachedScheme::DealScratch deal_scratch;
  cs.deal_into(secret, deal_rng, out, deal_scratch);
  EXPECT_EQ(cs.precompute_fingerprint(), sfp0);
}

TEST(RobustDecoder, ScratchExplicitReconstructMatchesConvenience) {
  Rng rng(34);
  ShamirScheme scheme(9, 2);
  auto secret = random_secret(rng, 6);
  auto shares = scheme.deal(secret, rng);
  for (auto& y : shares[4].ys) y = Fp(rng.next());
  std::vector<Fp> xs(9);
  for (std::size_t i = 0; i < 9; ++i) xs[i] = Fp(shares[i].x);
  RobustDecoder dec(xs, 2);
  RobustDecoder::Scratch scratch;
  auto a = dec.reconstruct(shares);
  auto b = dec.reconstruct(shares, scratch);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, secret);
}

TEST(RobustDecoder, PermutedPointSetStillDecodes) {
  // send_down groups arrive in chain order, not sorted order; the decoder
  // must handle any point ordering.
  Rng rng(32);
  ShamirScheme scheme(9, 3);
  auto secret = random_secret(rng, 3);
  auto shares = scheme.deal(secret, rng);
  std::swap(shares[0], shares[7]);
  std::swap(shares[2], shares[5]);
  for (auto& y : shares[4].ys) y = Fp(rng.next());
  auto rec = robust_reconstruct(shares, 3);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(*rec, secret);
}

/// Damaged words at the protocol shape (12 shares, t = 3, one word),
/// as share spans: `errors` corrupted shares per word.
struct DamagedWords {
  std::vector<Fp> xs;
  std::vector<std::vector<Fp>> cols;  // [share][word]
  std::vector<Fp> secrets;

  DamagedWords(Rng& rng, std::size_t words, std::size_t max_corrupt)
      : xs(12), cols(12, std::vector<Fp>(words)), secrets(words) {
    ShamirScheme scheme(12, 3);
    for (std::size_t i = 0; i < 12; ++i) xs[i] = Fp(i + 1);
    for (std::size_t w = 0; w < words; ++w) {
      secrets[w] = Fp(rng.next());
      auto shares = scheme.deal({secrets[w]}, rng);
      const std::size_t errors = 1 + rng.below(max_corrupt);
      for (auto b : rng.sample_without_replacement(12, errors))
        shares[b].ys[0] = Fp(rng.next());
      for (std::size_t i = 0; i < 12; ++i) cols[i][w] = shares[i].ys[0];
    }
  }
  /// The 12 share spans of word w.
  std::vector<FpSpan> word(std::size_t w) const {
    std::vector<FpSpan> out;
    for (const auto& col : cols) out.push_back(FpSpan{&col[w], 1});
    return out;
  }
};

TEST(RobustDecoder, WarmScratchDecodesDamagedWordsWithoutAllocating) {
  // The damaged-word path keeps every working polynomial in the caller's
  // scratch: once the Gao context is built and the scratch is warm,
  // neither a decoded nor a failing word may touch the heap.
  Rng rng(35);
  const DamagedWords data(rng, 64, 6);  // 5 and 6 errors exceed budget 4
  std::vector<std::vector<FpSpan>> words;
  for (std::size_t w = 0; w < 64; ++w) words.push_back(data.word(w));
  RobustDecoder dec(data.xs, 3);
  RobustDecoder::Scratch scratch;
  Fp out;
  for (const auto& spans : words)  // warm-up: builds the Gao context
    dec.reconstruct_into(spans.data(), 12, 1, &out, scratch);
  std::vector<std::uint8_t> ok(words.size());
  const std::uint64_t before = alloc_count::news.load();
  for (std::size_t w = 0; w < words.size(); ++w)
    ok[w] = dec.reconstruct_into(words[w].data(), 12, 1, &out, scratch);
  EXPECT_EQ(alloc_count::news.load() - before, 0u);
  EXPECT_EQ(scratch.damaged_words, 2 * words.size());
  std::size_t failed = 0;
  for (auto o : ok) failed += o ? 0 : 1;
  EXPECT_GT(failed, 0u);  // the failing path was exercised too
  EXPECT_LT(failed, words.size());
}

TEST(RobustDecoder, GaoPrecomputeUnchangedByWorkerBatch) {
  // Four workers decode damaged words against one decoder (and one
  // standalone GaoContext) with per-worker scratch: results match the
  // serial pass and neither precompute digest moves.
  Rng rng(36);
  const std::size_t kWords = 512;
  const DamagedWords data(rng, kWords, 5);
  RobustDecoder dec(data.xs, 3);
  const GaoContext ctx(data.xs);
  std::vector<std::vector<FpSpan>> words;
  for (std::size_t w = 0; w < kWords; ++w) words.push_back(data.word(w));
  const auto decode_item = [&](std::size_t w, RobustDecoder::Scratch& rs,
                               GaoContext::Scratch& gs) {
    Fnv1a d;
    Fp out;
    const bool ok = dec.reconstruct_into(words[w].data(), 12, 1, &out, rs);
    d.mix(ok ? out.value() + 1 : 0);
    std::vector<Fp> ys(12);
    for (std::size_t i = 0; i < 12; ++i) ys[i] = data.cols[i][w];
    if (ctx.decode(ys.data(), 3, 4, gs))
      for (const Fp& c : gs.msg) d.mix(c.value());
    return d.h;
  };
  std::vector<std::uint64_t> serial(kWords);
  {
    RobustDecoder::Scratch rs;
    GaoContext::Scratch gs;
    for (std::size_t w = 0; w < kWords; ++w)
      serial[w] = decode_item(w, rs, gs);
  }
  const std::uint64_t dec_fp = dec.precompute_fingerprint();
  const std::uint64_t ctx_fp = ctx.precompute_fingerprint();

  Pool::set_threads(4);
  std::vector<RobustDecoder::Scratch> rs(Pool::num_threads());
  std::vector<GaoContext::Scratch> gs(Pool::num_threads());
  std::vector<std::uint64_t> batched(kWords, 0);
  Pool::for_each(kWords, [&](std::size_t w, std::size_t worker) {
    batched[w] = decode_item(w, rs[worker], gs[worker]);
  });
  Pool::set_threads(0);

  EXPECT_EQ(batched, serial);
  EXPECT_EQ(dec.precompute_fingerprint(), dec_fp);
  EXPECT_EQ(ctx.precompute_fingerprint(), ctx_fp);
  std::uint64_t damaged = 0;
  for (const auto& s : rs) damaged += s.damaged_words;
  EXPECT_EQ(damaged, kWords);  // every word has at least one bad share
}

// ------------------------------------------- two-phase prewarm protocol --

TEST(SchemeCache, PrewarmMakesLookupsConstUnderWorkerStorm) {
  // Phase 1 (driver): pre-warm every shape and point set a round needs.
  // Phase 2 (workers): find_scheme / find_robust are const lookups — a
  // multi-worker deal/reconstruct storm must leave every precompute
  // fingerprint unchanged, hit on every lookup, and produce exactly the
  // serial results (per-item forked Rng streams, per-worker scratch).
  SchemeCache cache;
  const std::size_t kShares = 12, kT = 3, kWords = 6;
  const CachedScheme& scheme = cache.prewarm(kShares, kT);
  std::vector<Fp> xs(kShares);
  for (std::size_t i = 0; i < kShares; ++i) xs[i] = Fp(i + 1);
  // A second survivor pattern: shares 0..8 only (a dropped tail).
  std::vector<Fp> xs_partial(xs.begin(), xs.begin() + 9);
  SchemeCache::RobustPin pin(cache);
  const RobustDecoder& dec_full = cache.prewarm_points(xs, kT);
  const RobustDecoder& dec_partial = cache.prewarm_points(xs_partial, kT);
  const std::uint64_t scheme_fp = scheme.precompute_fingerprint();
  const std::uint64_t prewarm_full_fp = dec_full.precompute_fingerprint();
  const std::uint64_t epoch = cache.robust_epoch();

  // One storm item: fork an Rng, deal, damage two shares, reconstruct
  // through both decoders, digest everything.
  const auto run_item = [&](std::size_t item, const CachedScheme& s,
                            const RobustDecoder& full,
                            const RobustDecoder& partial,
                            CachedScheme::DealScratch& ds,
                            RobustDecoder::Scratch& rs) {
    Rng rng = Rng(4242).fork(item);
    std::vector<Fp> secret(kWords);
    for (auto& w : secret) w = Fp(rng.next());
    std::vector<VectorShare> shares;
    s.deal_into(secret, rng, shares, ds);
    for (auto& y : shares[1].ys) y = Fp(rng.next());
    for (auto& y : shares[7].ys) y = Fp(rng.next());
    Fnv1a digest;
    auto v = full.reconstruct(shares, rs);
    digest.mix(v.has_value() ? 1 : 0);
    if (v)
      for (const Fp& w : *v) digest.mix(w.value());
    shares.resize(9);
    auto p = partial.reconstruct(shares, rs);
    digest.mix(p.has_value() ? 1 : 0);
    if (p)
      for (const Fp& w : *p) digest.mix(w.value());
    return digest.h;
  };

  const std::size_t kItems = 256;
  std::vector<std::uint64_t> serial(kItems);
  {
    CachedScheme::DealScratch ds;
    RobustDecoder::Scratch rs;
    for (std::size_t i = 0; i < kItems; ++i)
      serial[i] = run_item(i, scheme, dec_full, dec_partial, ds, rs);
  }
  // The serial pass built both Gao contexts (every item is damaged), so
  // the digests now cover them.
  const std::uint64_t full_fp = dec_full.precompute_fingerprint();
  const std::uint64_t partial_fp = dec_partial.precompute_fingerprint();
  EXPECT_NE(full_fp, prewarm_full_fp);

  Pool::set_threads(8);
  std::vector<std::uint64_t> stormed(kItems, 0);
  std::vector<std::uint8_t> lookup_hit(kItems, 0);
  std::vector<CachedScheme::DealScratch> deal_scratch(Pool::num_threads());
  std::vector<RobustDecoder::Scratch> rec_scratch(Pool::num_threads());
  Pool::for_each(kItems, [&](std::size_t i, std::size_t worker) {
    const CachedScheme* s = cache.find_scheme(kShares, kT);
    const RobustDecoder* full = cache.find_robust(xs, kT);
    const RobustDecoder* partial = cache.find_robust(xs_partial, kT);
    if (s == nullptr || full == nullptr || partial == nullptr) return;
    lookup_hit[i] = 1;
    stormed[i] = run_item(i, *s, *full, *partial, deal_scratch[worker],
                          rec_scratch[worker]);
  });
  Pool::set_threads(0);

  for (std::size_t i = 0; i < kItems; ++i) {
    ASSERT_TRUE(lookup_hit[i]) << "phase-2 lookup missed for item " << i;
    EXPECT_EQ(stormed[i], serial[i]) << "item " << i;
  }
  // The storm was const: fingerprints, identities and epoch unchanged.
  EXPECT_EQ(scheme.precompute_fingerprint(), scheme_fp);
  EXPECT_EQ(dec_full.precompute_fingerprint(), full_fp);
  EXPECT_EQ(dec_partial.precompute_fingerprint(), partial_fp);
  EXPECT_EQ(cache.robust_epoch(), epoch);
  EXPECT_EQ(cache.find_scheme(kShares, kT), &scheme);
  EXPECT_EQ(cache.find_robust(xs, kT), &dec_full);
  EXPECT_EQ(cache.find_robust(xs_partial, kT), &dec_partial);
  // Misses return null rather than inserting.
  EXPECT_EQ(cache.find_scheme(99, 3), nullptr);
  std::vector<Fp> unseen{Fp(3), Fp(1), Fp(4), Fp(1)};
  EXPECT_EQ(cache.find_robust(unseen, 1), nullptr);
}

TEST(SchemeCache, RobustPinDefersEpochResetUntilUnpin) {
  // While a pre-warm batch is pinned, inserting past kMaxDecoders must
  // not reset the map (references collected during the batch stay
  // valid); the overflow is settled when the pin drops.
  SchemeCache cache;
  std::vector<Fp> first{Fp(1), Fp(2), Fp(3)};
  std::vector<const RobustDecoder*> held;
  const std::uint64_t epoch0 = cache.robust_epoch();
  {
    SchemeCache::RobustPin pin(cache);
    held.push_back(&cache.prewarm_points(first, 1));
    for (std::size_t i = 0; i <= SchemeCache::kMaxDecoders; ++i) {
      // Distinct point sets, enough to overflow the bounded map.
      std::vector<Fp> xs{Fp(i + 10), Fp(i + 11), Fp(i + 12)};
      held.push_back(&cache.prewarm_points(xs, 1));
    }
    // No reset happened mid-batch: the epoch is stable and the very
    // first reference still resolves.
    EXPECT_EQ(cache.robust_epoch(), epoch0);
    EXPECT_EQ(cache.find_robust(first, 1), held.front());
  }
  // The pin dropped with the map over its bound: one deferred reset.
  EXPECT_NE(cache.robust_epoch(), epoch0);
  EXPECT_EQ(cache.find_robust(first, 1), nullptr);
  // A batch that stays within the bound keeps the cache warm across
  // pins — no preemptive wipe.
  const RobustDecoder& again = cache.prewarm_points(first, 1);
  const std::uint64_t epoch1 = cache.robust_epoch();
  {
    SchemeCache::RobustPin pin(cache);
    EXPECT_EQ(&cache.prewarm_points(first, 1), &again);
  }
  EXPECT_EQ(cache.robust_epoch(), epoch1);
  EXPECT_EQ(cache.find_robust(first, 1), &again);
}

}  // namespace
}  // namespace ba
