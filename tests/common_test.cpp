// Unit and property tests for src/common: RNG, field arithmetic, tables.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "common/arena.h"
#include "common/field.h"
#include "common/pool.h"
#include "common/rng.h"
#include "common/table.h"

namespace ba {
namespace {

// ---------------------------------------------------------------- Rng --

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  bool differ = false;
  for (int i = 0; i < 16 && !differ; ++i) differ = a.next() != b.next();
  EXPECT_TRUE(differ);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
}

TEST(Rng, BelowRejectsZeroBound) {
  Rng r(7);
  EXPECT_THROW(r.below(0), std::logic_error);
}

TEST(Rng, BoundedDrawsTheSameWordsAsBelow) {
  // Bounds at the edges of the fastmod reciprocal and of the rejection
  // zone: 2^63 + 1 rejects almost half of all words, 2^64 - 1 only one.
  const std::uint64_t bounds[] = {1,
                                  2,
                                  3,
                                  46,
                                  2048,
                                  (1ULL << 32) - 1,
                                  (1ULL << 32) + 1,
                                  1ULL << 63,
                                  (1ULL << 63) + 1,
                                  ~0ULL};
  for (std::uint64_t bound : bounds) {
    SCOPED_TRACE(bound);
    Rng fast(bound ^ 0x5EED), slow(bound ^ 0x5EED);
    const Rng::Bounded pick(bound);
    std::size_t mismatches = 0;
    for (int i = 0; i < 100000; ++i)
      if (pick(fast) != slow.below(bound)) ++mismatches;
    EXPECT_EQ(mismatches, 0u);
    // Same rejections, so the generators end in the same state.
    for (int i = 0; i < 4; ++i) EXPECT_EQ(fast.next(), slow.next());
  }
}

TEST(Rng, BoundedRejectsZeroBound) {
  EXPECT_THROW(Rng::Bounded(0), std::logic_error);
}

TEST(Rng, BetweenInclusive) {
  Rng r(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    auto v = r.between(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // all four values appear
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng r(11);
  constexpr int kBuckets = 8, kSamples = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kSamples; ++i) ++counts[r.below(kBuckets)];
  for (int b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kSamples / kBuckets, kSamples / kBuckets / 5);
  }
}

TEST(Rng, Uniform01InRange) {
  Rng r(13);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(17);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng r(19);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 50000.0, 0.3, 0.02);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng r(23);
  for (std::size_t k : {0u, 1u, 5u, 50u, 100u}) {
    auto s = r.sample_without_replacement(100, k);
    EXPECT_EQ(s.size(), k);
    std::set<std::uint64_t> set(s.begin(), s.end());
    EXPECT_EQ(set.size(), k);
    for (auto v : s) EXPECT_LT(v, 100u);
  }
}

TEST(Rng, SampleWholeUniverse) {
  Rng r(29);
  auto s = r.sample_without_replacement(10, 10);
  std::set<std::uint64_t> set(s.begin(), s.end());
  EXPECT_EQ(set.size(), 10u);
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng r(31);
  EXPECT_THROW(r.sample_without_replacement(5, 6), std::logic_error);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng a(99), b(99);
  Rng fa = a.fork(1), fb = b.fork(1);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(fa.next(), fb.next());
  Rng f1 = a.fork(1), f2 = a.fork(2);
  bool differ = false;
  for (int i = 0; i < 16 && !differ; ++i) differ = f1.next() != f2.next();
  EXPECT_TRUE(differ);
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  Rng a(5), b(5);
  (void)a.fork(77);
  EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng r(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto orig = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

// ----------------------------------------------------------------- Fp --

TEST(Fp, CanonicalReduction) {
  EXPECT_EQ(Fp(Fp::kP).value(), 0u);
  EXPECT_EQ(Fp(Fp::kP + 5).value(), 5u);
  EXPECT_EQ(Fp(~std::uint64_t{0}).value(), (~std::uint64_t{0}) % Fp::kP);
}

TEST(Fp, AdditionWraps) {
  Fp a(Fp::kP - 1), b(2);
  EXPECT_EQ((a + b).value(), 1u);
}

TEST(Fp, SubtractionWraps) {
  Fp a(1), b(2);
  EXPECT_EQ((a - b).value(), Fp::kP - 1);
}

TEST(Fp, MultiplicationMatchesNaive) {
  Rng r(41);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t x = r.next() % Fp::kP;
    const std::uint64_t y = r.next() % Fp::kP;
    const auto expect = static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * y) % Fp::kP);
    EXPECT_EQ((Fp(x) * Fp(y)).value(), expect);
  }
}

TEST(Fp, PowMatchesRepeatedMultiplication) {
  Fp base(12345);
  Fp acc(1);
  for (std::uint64_t e = 0; e < 20; ++e) {
    EXPECT_EQ(base.pow(e), acc);
    acc *= base;
  }
}

TEST(Fp, InverseIsInverse) {
  Rng r(43);
  for (int i = 0; i < 100; ++i) {
    Fp x(r.next());
    if (x.is_zero()) continue;
    EXPECT_EQ(x * x.inverse(), Fp(1));
  }
}

TEST(Fp, InverseOfZeroThrows) {
  EXPECT_THROW(Fp(0).inverse(), std::logic_error);
}

TEST(Fp, FermatLittleTheorem) {
  Rng r(47);
  for (int i = 0; i < 20; ++i) {
    Fp x(r.next());
    if (x.is_zero()) continue;
    EXPECT_EQ(x.pow(Fp::kP - 1), Fp(1));
  }
}

TEST(PolyEval, HornerMatchesDirect) {
  // p(x) = 3 + 2x + x^2 at x = 10 -> 123.
  std::vector<Fp> coeffs{Fp(3), Fp(2), Fp(1)};
  EXPECT_EQ(poly_eval(coeffs, Fp(10)), Fp(123));
}

TEST(PolyEval, EmptyPolynomialIsZero) {
  EXPECT_EQ(poly_eval({}, Fp(5)), Fp(0));
}

TEST(Lagrange, RecoversConstantTerm) {
  Rng r(53);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Fp> coeffs;
    const std::size_t deg = 1 + trial % 6;
    for (std::size_t i = 0; i <= deg; ++i) coeffs.push_back(Fp(r.next()));
    std::vector<Fp> xs, ys;
    for (std::size_t i = 1; i <= deg + 1; ++i) {
      xs.push_back(Fp(i * 7));
      ys.push_back(poly_eval(coeffs, Fp(i * 7)));
    }
    EXPECT_EQ(lagrange_at_zero(xs, ys), coeffs[0]);
  }
}

TEST(Lagrange, RejectsDuplicatePoints) {
  std::vector<Fp> xs{Fp(1), Fp(1)};
  std::vector<Fp> ys{Fp(2), Fp(3)};
  EXPECT_THROW(lagrange_at_zero(xs, ys), std::logic_error);
}

// ------------------------------------------------------- BatchInverse --

TEST(BatchInverse, AgreesWithFermatInverse) {
  Rng r(61);
  for (std::size_t n : {1u, 2u, 3u, 7u, 64u, 257u}) {
    std::vector<Fp> v(n);
    for (auto& x : v) {
      do {
        x = Fp(r.next());
      } while (x.is_zero());
    }
    auto expected = v;
    for (auto& x : expected) x = x.inverse();
    batch_inverse(v);
    EXPECT_EQ(v, expected);
  }
}

TEST(BatchInverse, RejectsZeroAnywhere) {
  std::vector<Fp> v{Fp(3), Fp(0), Fp(5)};
  EXPECT_THROW(batch_inverse(v), std::logic_error);
  std::vector<Fp> empty;
  batch_inverse(empty);  // vacuously fine
}

// -------------------------------------------------------- Barycentric --

std::vector<Fp> distinct_points(Rng& r, std::size_t m) {
  std::vector<Fp> xs;
  std::set<std::uint64_t> seen;
  while (xs.size() < m) {
    Fp x(r.next());
    if (seen.insert(x.value()).second) xs.push_back(x);
  }
  return xs;
}

TEST(Barycentric, MatchesLagrangeAtZeroOnRandomPointSets) {
  Rng r(67);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t m = 1 + r.below(20);
    auto xs = distinct_points(r, m);
    std::vector<Fp> ys(m);
    for (auto& y : ys) y = Fp(r.next());
    BarycentricInterpolator interp(xs);
    EXPECT_EQ(interp.eval_at_zero(ys), lagrange_at_zero(xs, ys));
  }
}

TEST(Barycentric, ManyWordsShareOnePrecompute) {
  // The reconstruction pattern: one point set, many word columns.
  Rng r(71);
  const std::size_t m = 33;
  auto xs = distinct_points(r, m);
  BarycentricInterpolator interp(xs);
  for (int w = 0; w < 64; ++w) {
    std::vector<Fp> ys(m);
    for (auto& y : ys) y = Fp(r.next());
    EXPECT_EQ(interp.eval_at_zero(ys), lagrange_at_zero(xs, ys));
  }
}

TEST(Barycentric, RowAtMatchesPolynomialEvaluation) {
  Rng r(73);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t m = 2 + r.below(10);
    std::vector<Fp> coeffs(m);
    for (auto& c : coeffs) c = Fp(r.next());
    auto xs = distinct_points(r, m);
    std::vector<Fp> ys(m);
    for (std::size_t i = 0; i < m; ++i) ys[i] = poly_eval(coeffs, xs[i]);
    BarycentricInterpolator interp(xs);
    const Fp z(r.next());
    auto row = interp.row_at(z);
    EXPECT_EQ(BarycentricInterpolator::eval_row(row, ys), poly_eval(coeffs, z));
    // Evaluating exactly at a node returns that node's value.
    auto node_row = interp.row_at(xs[1]);
    EXPECT_EQ(BarycentricInterpolator::eval_row(node_row, ys), ys[1]);
  }
}

TEST(Barycentric, HandlesZeroAsInterpolationNode) {
  // lagrange_at_zero degenerates to ys[k] when some x_k == 0; the
  // precomputed row must agree exactly.
  std::vector<Fp> xs{Fp(5), Fp(0), Fp(9)};
  std::vector<Fp> ys{Fp(11), Fp(22), Fp(33)};
  BarycentricInterpolator interp(xs);
  EXPECT_EQ(interp.eval_at_zero(ys), Fp(22));
  EXPECT_EQ(interp.eval_at_zero(ys), lagrange_at_zero(xs, ys));
}

TEST(Barycentric, RejectsAdversarialDuplicates) {
  std::vector<Fp> dup{Fp(4), Fp(7), Fp(4)};
  EXPECT_THROW(BarycentricInterpolator interp(dup), std::logic_error);
  EXPECT_THROW(BarycentricInterpolator interp(std::vector<Fp>{}),
               std::logic_error);
}

TEST(InterpolateCoeffs, RecoversPolynomialExactly) {
  Rng r(79);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t m = 1 + r.below(12);
    std::vector<Fp> coeffs(m);
    for (auto& c : coeffs) c = Fp(r.next());
    auto xs = distinct_points(r, m);
    std::vector<Fp> ys(m);
    for (std::size_t i = 0; i < m; ++i) ys[i] = poly_eval(coeffs, xs[i]);
    EXPECT_EQ(interpolate_coeffs(xs, ys), coeffs);
  }
}

TEST(InterpolateCoeffs, RejectsDuplicates) {
  std::vector<Fp> xs{Fp(2), Fp(2)};
  std::vector<Fp> ys{Fp(1), Fp(1)};
  EXPECT_THROW(interpolate_coeffs(xs, ys), std::logic_error);
}

// -------------------------------------------------------------- Table --

// ---------------------------------------------------------- WordArena --

TEST(WordArena, RunsAreStableAndDisjointAcrossSlabGrowth) {
  WordArena arena(/*slab_words=*/16);  // tiny slabs to force growth
  std::vector<Fp*> runs;
  const std::size_t kRuns = 40, kLen = 7;
  for (std::size_t r = 0; r < kRuns; ++r) {
    Fp* run = arena.alloc(kLen);
    for (std::size_t i = 0; i < kLen; ++i)
      run[i] = Fp(r * 1000 + i);
    runs.push_back(run);
  }
  // Every run keeps its words even after later slabs were added.
  for (std::size_t r = 0; r < kRuns; ++r)
    for (std::size_t i = 0; i < kLen; ++i)
      EXPECT_EQ(runs[r][i].value(), Fp(r * 1000 + i).value());
  EXPECT_EQ(arena.words_allocated(), kRuns * kLen);
  EXPECT_GT(arena.slab_count(), 1u);
}

TEST(WordArena, ResetReusesSlabsWithoutReleasing) {
  WordArena arena(/*slab_words=*/32);
  for (int i = 0; i < 10; ++i) arena.alloc(20);
  const std::size_t slabs = arena.slab_count();
  arena.reset();
  EXPECT_EQ(arena.words_allocated(), 0u);
  for (int i = 0; i < 10; ++i) arena.alloc(20);
  EXPECT_EQ(arena.slab_count(), slabs);  // steady state: no new slabs
}

TEST(WordArena, OversizeRunsGetDedicatedSlabs) {
  WordArena arena(/*slab_words=*/8);
  Fp* small = arena.alloc(4);
  Fp* big = arena.alloc(100);  // larger than a slab
  for (std::size_t i = 0; i < 100; ++i) big[i] = Fp(i);
  small[0] = Fp(7);
  EXPECT_EQ(big[99].value(), 99u);
  EXPECT_EQ(small[0].value(), 7u);
  arena.reset();  // oversize slabs released, regular kept
  EXPECT_EQ(arena.words_allocated(), 0u);
}

TEST(WordArena, ZeroLengthAllocationsAreValidSpans) {
  WordArena arena;
  FpSpan span{arena.alloc(0), 0};
  EXPECT_TRUE(span.empty());
  EXPECT_EQ(span.begin(), span.end());
}

// ------------------------------------------------- PodArena epochs --

TEST(PodArenaEpoch, RewindsCursorAndReleasesOversize) {
  PodArena<std::uint64_t> arena(/*slab_elems=*/16);
  std::uint64_t* outer = arena.alloc(8);
  outer[0] = 42;
  const std::size_t before = arena.words_allocated();
  std::uint64_t* inner_addr = nullptr;
  {
    PodArena<std::uint64_t>::Epoch epoch(arena);
    inner_addr = arena.alloc(4);
    arena.alloc(100);  // oversize: dedicated slab, released with the epoch
    EXPECT_GT(arena.words_allocated(), before);
  }
  EXPECT_EQ(arena.words_allocated(), before);
  EXPECT_EQ(outer[0], 42u);  // pre-epoch data survives the rewind
  // The next allocation lands exactly where the epoch's first one did:
  // the cursor rewound, so epoch-local spans are invalidated by reuse.
  EXPECT_EQ(arena.alloc(4), inner_addr);
}

TEST(PodArenaEpoch, NestsLifo) {
  PodArena<std::uint64_t> arena(/*slab_elems=*/8);
  std::uint64_t* a = arena.alloc(3);
  a[0] = 1;
  {
    PodArena<std::uint64_t>::Epoch outer(arena);
    std::uint64_t* b = arena.alloc(3);
    b[0] = 2;
    {
      PodArena<std::uint64_t>::Epoch inner(arena);
      std::uint64_t* c = arena.alloc(6);  // spills to a second slab
      c[0] = 3;
    }
    EXPECT_EQ(b[0], 2u);  // inner rewind leaves the outer epoch's data
    EXPECT_EQ(arena.words_allocated(), 6u);
  }
  EXPECT_EQ(a[0], 1u);
  EXPECT_EQ(arena.words_allocated(), 3u);
}

TEST(PodArenaEpoch, ResetInsideOpenEpochThrows) {
  PodArena<std::uint64_t> arena;
  PodArena<std::uint64_t>::Epoch epoch(arena);
  arena.alloc(4);
  EXPECT_THROW(arena.reset(), std::logic_error);
}

TEST(PodArenaEpoch, StressNoSpanOutlivesItsEpoch) {
  // Randomized nested-epoch churn, the memory-diet lifecycle the
  // protocols rely on (almost_everywhere carves election coin buffers
  // per level under an epoch). Invariants checked:
  //  * data carved before an epoch is bit-identical after the epoch
  //    closes, no matter how much the epoch allocated over the same
  //    slabs (incl. oversize spills);
  //  * the allocation high-water mark returns to its pre-epoch value,
  //    so no epoch-local span survives into the next iteration except
  //    by address reuse — which the sentinel check would catch.
  // Under ASan this also sweeps the slab-boundary arithmetic: every
  // carved run is written end to end at several sizes.
  PodArena<std::uint64_t> arena(/*slab_elems=*/64);
  Rng rng(777);
  auto fill = [](std::uint64_t* p, std::size_t len, std::uint64_t tag) {
    for (std::size_t i = 0; i < len; ++i) p[i] = tag ^ (i * 0x9e3779b97f4a7c15ULL);
  };
  auto check = [](const std::uint64_t* p, std::size_t len, std::uint64_t tag) {
    for (std::size_t i = 0; i < len; ++i)
      if (p[i] != (tag ^ (i * 0x9e3779b97f4a7c15ULL))) return false;
    return true;
  };
  for (int iter = 0; iter < 200; ++iter) {
    arena.reset();
    std::vector<std::pair<std::uint64_t*, std::size_t>> outer_runs;
    const std::size_t outer_count = 1 + rng.below(5);
    for (std::size_t r = 0; r < outer_count; ++r) {
      const std::size_t len = 1 + rng.below(90);  // crosses slab + oversize
      std::uint64_t* p = arena.alloc(len);
      fill(p, len, iter * 131 + r);
      outer_runs.emplace_back(p, len);
    }
    const std::size_t outer_mark = arena.words_allocated();
    {
      PodArena<std::uint64_t>::Epoch e1(arena);
      for (int k = 0; k < 8; ++k) {
        const std::size_t len = 1 + rng.below(70);
        fill(arena.alloc(len), len, 999);
      }
      {
        PodArena<std::uint64_t>::Epoch e2(arena);
        const std::size_t len = 1 + rng.below(200);
        fill(arena.alloc(len), len, 555);
      }
      const std::size_t len = 1 + rng.below(50);
      fill(arena.alloc(len), len, 666);
    }
    ASSERT_EQ(arena.words_allocated(), outer_mark);
    for (std::size_t r = 0; r < outer_count; ++r)
      ASSERT_TRUE(check(outer_runs[r].first, outer_runs[r].second,
                        iter * 131 + r))
          << "epoch churn corrupted a pre-epoch span (iter " << iter << ")";
  }
}

TEST(Table, RendersHeaderAndRows) {
  Table t("demo");
  t.header({"a", "b"});
  t.row({std::int64_t{1}, std::string("x")});
  t.row({2.5, std::string("y")});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("2.5"), std::string::npos);
  EXPECT_EQ(s.substr(s.size() - 2), "\n\n") << "a blank line follows";
}

TEST(Table, RowWidthMustMatchHeader) {
  Table t("demo");
  t.header({"a", "b"});
  EXPECT_THROW(t.row({std::int64_t{1}}), std::logic_error);
}

// ----------------------------------------------------------- PerWorker --

TEST(PerWorker, EverySlotOwnsItsCacheLines) {
  // A 48-byte scratch (a PluralityCounter's size) would put two workers
  // on one line in a plain vector.
  struct Scratch {
    std::vector<std::uint64_t> a, b;
  };
  Pool::set_threads(8);
  PerWorker<Scratch> slots;
  ASSERT_EQ(slots.size(), 8u);
  for (std::size_t w = 0; w < slots.size(); ++w) {
    const auto addr = reinterpret_cast<std::uintptr_t>(&slots[w]);
    EXPECT_EQ(addr % 64, 0u) << "slot " << w;
    if (w > 0) {
      const auto prev = reinterpret_cast<std::uintptr_t>(&slots[w - 1]);
      EXPECT_GE(addr - prev, 64u) << "slot " << w;
    }
  }
  Pool::set_threads(0);
}

TEST(PerWorker, FitFollowsTheWorkerCount) {
  Pool::set_threads(1);
  PerWorker<std::vector<int>> slots;
  EXPECT_EQ(slots.size(), 1u);
  slots[0].push_back(7);
  Pool::set_threads(8);
  EXPECT_EQ(slots.fit().size(), 8u);
  EXPECT_EQ(slots[0], std::vector<int>{7});  // surviving slots keep state
  Pool::set_threads(2);
  EXPECT_EQ(slots.fit().size(), 2u);
  std::size_t seen = 0;
  slots.each([&](std::vector<int>& v) { seen += v.size(); });
  EXPECT_EQ(seen, 1u);
  Pool::set_threads(0);
}

TEST(PerWorker, BodiesIndexTheirOwnSlot) {
  // Per-worker partials summed after the loop equal the serial total at
  // any worker count.
  for (std::size_t workers : {1, 2, 4}) {
    Pool::set_threads(workers);
    PerWorker<std::uint64_t> partial;
    Pool::for_each(1000, [&](std::size_t i, std::size_t worker) {
      partial[worker] += i;
    });
    std::uint64_t total = 0;
    partial.each([&](std::uint64_t v) { total += v; });
    EXPECT_EQ(total, 999u * 1000u / 2) << workers << " workers";
  }
  Pool::set_threads(0);
}

}  // namespace
}  // namespace ba
