// Integration tests for the full protocol stack: Algorithm 2 (AEBA via the
// tournament), §3.5 (coin subsequence), Algorithm 3 (A2E) and Algorithm 4
// (everywhere BA), against passive, crash, malicious, and adaptive
// adversaries.
#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "core/everywhere.h"
#include "core/global_coin.h"

namespace ba {
namespace {

std::vector<std::uint8_t> unanimous(std::size_t n, std::uint8_t b) {
  return std::vector<std::uint8_t>(n, b);
}

std::vector<std::uint8_t> random_inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> in(n);
  for (auto& b : in) b = rng.flip() ? 1 : 0;
  return in;
}

// ---------------------------------------------------- almost everywhere --

TEST(AlmostEverywhere, UnanimousNoFaults) {
  const std::size_t n = 64;
  auto params = ProtocolParams::laptop_scale(n);
  AlmostEverywhereBA proto(params, 1);
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto res = proto.run(net, adv, unanimous(n, 1));
  EXPECT_TRUE(res.validity);
  EXPECT_TRUE(res.decided_bit);
  EXPECT_GE(res.agreement_fraction, 0.95);
}

TEST(AlmostEverywhere, UnanimousZeroPreserved) {
  const std::size_t n = 64;
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 2);
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto res = proto.run(net, adv, unanimous(n, 0));
  EXPECT_FALSE(res.decided_bit);
  EXPECT_GE(res.agreement_fraction, 0.95);
}

TEST(AlmostEverywhere, SplitInputsReachAgreement) {
  const std::size_t n = 64;
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 3);
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto res = proto.run(net, adv, random_inputs(n, 4));
  EXPECT_GE(res.agreement_fraction, 1.0 - 1.5 / 6.0);  // 1 - C/log n
  EXPECT_TRUE(res.validity);
}

TEST(AlmostEverywhere, SurvivesCrashFaults) {
  const std::size_t n = 64;
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 5);
  Network net(n, n / 3);
  CrashAdversary adv(0.15, 6);
  auto res = proto.run(net, adv, unanimous(n, 1));
  EXPECT_TRUE(res.decided_bit);
  EXPECT_GE(res.agreement_fraction, 0.9);
}

TEST(AlmostEverywhere, SurvivesMaliciousMinority) {
  const std::size_t n = 64;
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 7);
  Network net(n, n / 3);
  StaticMaliciousAdversary adv(0.10, 8);
  auto res = proto.run(net, adv, unanimous(n, 1));
  EXPECT_TRUE(res.decided_bit) << "unanimous good input must survive";
  EXPECT_GE(res.agreement_fraction, 0.85);
}

TEST(AlmostEverywhere, PerLevelStatsPopulated) {
  const std::size_t n = 64;
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 9);
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto res = proto.run(net, adv, random_inputs(n, 10));
  ASSERT_FALSE(res.levels.empty());
  for (const auto& lvl : res.levels) {
    EXPECT_GE(lvl.level, 2u);
    EXPECT_GT(lvl.winners_total, 0u);
    EXPECT_LE(lvl.winners_good, lvl.winners_total);
    EXPECT_GE(lvl.mean_bin_agreement, 0.8);
  }
  EXPECT_GT(res.rounds, 0u);
}

TEST(AlmostEverywhere, NoFaultWinnersAllGood) {
  const std::size_t n = 64;
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 11);
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto res = proto.run(net, adv, random_inputs(n, 12));
  for (const auto& lvl : res.levels)
    EXPECT_EQ(lvl.winners_good, lvl.winners_total) << "level " << lvl.level;
}

TEST(AlmostEverywhere, SequenceReleasedAndMostlyGood) {
  const std::size_t n = 64;
  auto params = ProtocolParams::laptop_scale(n);
  params.coin_words = 8;  // longer sequence for meaningful bias stats
  AlmostEverywhereBA proto(params, 13);
  Network net(n, n / 3);
  StaticMaliciousAdversary adv(0.1, 14);
  auto res = proto.run(net, adv, random_inputs(n, 15));
  ASSERT_EQ(res.seq_views.size(), params.coin_words * res.r_root);
  auto q = assess_sequence(res, net.corrupt_mask());
  // Theorem 2's (s, 2s/3) is asymptotic; the finite-n form is Lemma 6's
  // 2/3 - O(levels / log n), a real deduction at n = 64 (log2 n = 6,
  // 4 levels). Bar: a solid majority of usable coins.
  EXPECT_GE(static_cast<double>(q.good_words) /
                static_cast<double>(q.length),
            0.55);
  EXPECT_GE(q.min_good_agreement, 0.85);
  EXPECT_NEAR(q.good_bit_bias, 0.5, 0.3);
}

TEST(AlmostEverywhere, SubQuadraticTotalBits) {
  // The headline scaling sanity check at one size: total good bits per
  // processor far below the n-per-processor a quadratic protocol needs
  // at equal message grain is not checkable at n=64; instead check the
  // ledger is populated and the max-to-mean spread is modest.
  const std::size_t n = 64;
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 16);
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  proto.run(net, adv, random_inputs(n, 17));
  const auto& mask = net.corrupt_mask();
  EXPECT_GT(net.ledger().total_bits_sent(mask, false), 0u);
  EXPECT_GT(net.ledger().max_bits_sent(mask, false), 0u);
}

TEST(AlmostEverywhere, RejectsSizeMismatch) {
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(64), 18);
  Network net(32, 8);
  PassiveStaticAdversary adv({});
  EXPECT_THROW(proto.run(net, adv, unanimous(32, 1)), std::logic_error);
}

TEST(AlmostEverywhere, AdaptiveWinnerTakeoverDoesNotLearnOrBreak) {
  // The paper's raison d'être: corrupting array *owners* after their
  // arrays win gains nothing (shares were dealt and erased), and the
  // protocol still agrees.
  const std::size_t n = 64;
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 19);
  Network net(n, n / 3);
  AdaptiveWinnerTakeover adv(20, /*corrupt_share_holders=*/false);
  auto res = proto.run(net, adv, unanimous(n, 1));
  EXPECT_TRUE(res.decided_bit);
  EXPECT_GE(res.agreement_fraction, 0.85);
}

// ------------------------------------------------------------------ a2e --

struct A2EFixture {
  std::size_t n;
  A2EParams params;
  Network net;
  std::vector<std::uint64_t> beliefs;

  explicit A2EFixture(std::size_t n_, double knowledgeable_fraction,
                      std::uint64_t seed)
      : n(n_), params(A2EParams::laptop_scale(n_)), net(n_, n_ / 3) {
    // knowledgeable procs hold message 1, confused hold 0.
    Rng rng(seed);
    beliefs.assign(n, 0);
    auto know = rng.sample_without_replacement(
        n, static_cast<std::size_t>(knowledgeable_fraction *
                                    static_cast<double>(n)));
    for (auto p : know) beliefs[p] = 1;
  }
};

std::function<std::uint64_t(std::size_t, ProcId)> shared_labels(
    std::uint64_t seed) {
  return [seed](std::size_t loop, ProcId) {
    std::uint64_t s = seed + loop;
    return splitmix64(s);
  };
}

TEST(A2E, BringsEveryoneToTheMessage) {
  A2EFixture f(256, 0.8, 1);
  PassiveStaticAdversary adv({});
  AlmostToEverywhere a2e(f.params, 2);
  auto res = a2e.run(f.net, adv, f.beliefs, 1, shared_labels(3));
  EXPECT_TRUE(res.all_good_agree);
  EXPECT_EQ(res.wrong_count, 0u);
}

TEST(A2E, NoWrongDecisionsEver) {
  // Lemma 7(2): w.h.p. every processor either decides M or stays
  // undecided. At laptop-scale request budgets the Chernoff tail is not
  // negligible (the paper's a = 32c/eps^2 constant is enormous), so the
  // bar is "at most a vanishing handful", not literal zero.
  A2EFixture f(256, 0.8, 4);
  StaticMaliciousAdversary adv(0.2, 5);
  adv.on_start(f.net);
  AlmostToEverywhere a2e(f.params, 6);
  auto res = a2e.run(f.net, adv, f.beliefs, 1, shared_labels(7));
  for (const auto& loop : res.loops)
    EXPECT_LE(loop.decided_wrong, f.n / 50);
}

TEST(A2E, SucceedsDespiteFlooding) {
  // 0.85 knowledge is the realistic post-tournament operating point
  // (phase 1 leaves >= 1 - 1/log n of good processors knowledgeable).
  A2EFixture f(256, 0.85, 8);
  FloodingA2EAdversary adv(0.2, 9);
  adv.on_start(f.net);
  AlmostToEverywhere a2e(f.params, 10);
  auto res = a2e.run(f.net, adv, f.beliefs, 1, shared_labels(11));
  EXPECT_LE(res.wrong_count, f.n / 50);
  EXPECT_GE(static_cast<double>(res.agree_count),
            0.9 * static_cast<double>(f.net.good_procs().size()));
}

TEST(A2E, OverloadBoundHolds) {
  // Lemma 9: few knowledgeable processors are overloaded per loop.
  A2EFixture f(400, 0.8, 12);
  FloodingA2EAdversary adv(0.25, 13, /*flood_per_pair=*/256);
  adv.on_start(f.net);
  AlmostToEverywhere a2e(f.params, 14);
  auto res = a2e.run(f.net, adv, f.beliefs, 1, shared_labels(15));
  for (const auto& loop : res.loops)
    EXPECT_LE(loop.overloaded_knowledgeable, f.n / 10);
}

TEST(A2E, SqrtNBitsPerProcessor) {
  // Theorem 4 cost shape: per-loop bits per processor are O~(sqrt n).
  const std::size_t n = 1024;
  A2EParams params = A2EParams::laptop_scale(n);
  params.repeats = 1;
  Network net(n, n / 3);
  std::vector<std::uint64_t> beliefs(n, 1);
  PassiveStaticAdversary adv({});
  AlmostToEverywhere a2e(params, 16);
  a2e.run(net, adv, beliefs, 1, shared_labels(17));
  const auto max_bits = net.ledger().max_bits_sent(net.corrupt_mask(), false);
  // sqrt(n) * requests_per_label messages of ~(header + label) bits, plus
  // responses: comfortably below n * 64 (what all-to-all would need) and
  // above sqrt(n).
  EXPECT_LT(max_bits, n * 64u);
  EXPECT_GT(max_bits, static_cast<std::uint64_t>(32 * 32));
}

TEST(A2E, DecisionsAreSticky) {
  A2EFixture f(128, 0.8, 18);
  PassiveStaticAdversary adv({});
  AlmostToEverywhere a2e(f.params, 19);
  auto res = a2e.run(f.net, adv, f.beliefs, 1, shared_labels(20));
  ASSERT_GE(res.loops.size(), 2u);
  for (std::size_t i = 1; i < res.loops.size(); ++i)
    EXPECT_GE(res.loops[i].decided_total, res.loops[i - 1].decided_total);
}

// ----------------------------------------------------------- everywhere --

TEST(Everywhere, EndToEndNoFaults) {
  const std::size_t n = 64;
  EverywhereBA proto = EverywhereBA::make(n, 21);
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto res = proto.run(net, adv, unanimous(n, 1));
  EXPECT_TRUE(res.decided_bit);
  EXPECT_TRUE(res.validity);
  EXPECT_TRUE(res.all_good_agree);
}

TEST(Everywhere, EndToEndMalicious) {
  const std::size_t n = 64;
  EverywhereBA proto = EverywhereBA::make(n, 22);
  Network net(n, n / 3);
  StaticMaliciousAdversary adv(0.1, 23);
  auto res = proto.run(net, adv, unanimous(n, 0));
  EXPECT_FALSE(res.decided_bit);
  EXPECT_TRUE(res.validity);
  EXPECT_GE(static_cast<double>(res.a2e.agree_count),
            0.95 * static_cast<double>(net.good_procs().size()));
}

TEST(Everywhere, SplitInputsAgree) {
  const std::size_t n = 64;
  EverywhereBA proto = EverywhereBA::make(n, 24);
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto res = proto.run(net, adv, random_inputs(n, 25));
  EXPECT_TRUE(res.all_good_agree);
}

}  // namespace
}  // namespace ba
