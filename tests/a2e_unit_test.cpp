// Unit-level tests for the Algorithm 3 engine: parameter derivation,
// overload and flooding caps, decision thresholds, stickiness, and label
// view divergence.
#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "core/a2e.h"

namespace ba {
namespace {

std::function<std::uint64_t(std::size_t, ProcId)> constant_label(
    std::uint64_t k) {
  return [k](std::size_t, ProcId) { return k; };
}

TEST(A2EParams, LaptopScaleDerivation) {
  auto p = A2EParams::laptop_scale(1024);
  EXPECT_EQ(p.sqrt_n, 32u);
  EXPECT_GE(p.requests_per_label, 24u);
  EXPECT_GE(p.repeats, 2u);
  EXPECT_EQ(p.overload_cap, 32u * 10u);  // sqrt(n) * log2(n)
  EXPECT_GE(p.per_sender_cap, 4u);
}

TEST(A2EParams, NonSquareSizesRoundUp) {
  auto p = A2EParams::laptop_scale(1000);
  EXPECT_EQ(p.sqrt_n, 32u);  // ceil(sqrt(1000)) = 32
}

TEST(A2EParams, DecisionThresholdFormula) {
  A2EParams p;
  p.requests_per_label = 40;
  p.eps = 0.1;
  // (0.5 + 3*0.1/8) * 40 = 21.5 -> 21.
  EXPECT_EQ(p.decision_threshold(), 21u);
}

TEST(A2E, RejectsDegenerateParams) {
  A2EParams p;
  p.sqrt_n = 0;
  EXPECT_THROW(AlmostToEverywhere(p, 1), std::logic_error);
  p = A2EParams::laptop_scale(64);
  p.repeats = 0;
  EXPECT_THROW(AlmostToEverywhere(p, 1), std::logic_error);
}

TEST(A2E, RunsExactlyTwoRoundsPerLoop) {
  const std::size_t n = 64;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto p = A2EParams::laptop_scale(n);
  p.repeats = 3;
  AlmostToEverywhere a2e(p, 2);
  std::vector<std::uint64_t> beliefs(n, 1);
  auto res = a2e.run(net, adv, beliefs, 1, constant_label(0));
  EXPECT_EQ(res.rounds, 6u);
  EXPECT_EQ(res.loops.size(), 3u);
}

TEST(A2E, ArbitraryMessagesNotJustBits) {
  const std::size_t n = 128;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto p = A2EParams::laptop_scale(n);
  const std::uint64_t m = 0xDEADBEEFCAFEULL;
  std::vector<std::uint64_t> beliefs(n, 0);
  Rng pick(3);
  for (auto q : pick.sample_without_replacement(n, (8 * n) / 10))
    beliefs[q] = m;
  AlmostToEverywhere a2e(p, 4);
  auto res = a2e.run(net, adv, beliefs, m, constant_label(1));
  EXPECT_TRUE(res.all_good_agree);
  for (ProcId q = 0; q < n; ++q)
    if (!net.is_corrupt(q)) EXPECT_EQ(res.message[q], m);
}

TEST(A2E, TinyOverloadCapForcesSilence) {
  // With overload_cap = 0 every knowledgeable processor is overloaded on
  // the active label, so nobody responds and nobody decides — but nobody
  // decides *wrongly* either (Lemma 7(2)'s safety direction).
  const std::size_t n = 64;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto p = A2EParams::laptop_scale(n);
  p.overload_cap = 0;
  p.repeats = 2;
  std::vector<std::uint64_t> beliefs(n, 0);
  for (ProcId q = 0; q < n / 2 + n / 5; ++q) beliefs[q] = 1;
  AlmostToEverywhere a2e(p, 5);
  auto res = a2e.run(net, adv, beliefs, 1, constant_label(2));
  for (const auto& loop : res.loops) {
    EXPECT_GT(loop.overloaded_knowledgeable, 0u);
    EXPECT_EQ(loop.decided_wrong, 0u);
  }
  EXPECT_FALSE(res.all_good_agree);
}

TEST(A2E, DecidedBeliefsPersistAcrossLoops) {
  const std::size_t n = 128;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto p = A2EParams::laptop_scale(n);
  p.repeats = 4;
  std::vector<std::uint64_t> beliefs(n, 0);
  Rng pick(7);
  for (auto q : pick.sample_without_replacement(n, (85 * n) / 100))
    beliefs[q] = 1;
  AlmostToEverywhere a2e(p, 8);
  auto res = a2e.run(net, adv, beliefs, 1, constant_label(3));
  // Once all loops report success, the final state must agree.
  ASSERT_FALSE(res.loops.empty());
  if (res.loops.front().loop_success) {
    for (const auto& loop : res.loops) EXPECT_TRUE(loop.loop_success);
    EXPECT_TRUE(res.all_good_agree);
  }
}

TEST(A2E, DivergentLabelViewsDegradeGracefully) {
  // A tenth of processors see the wrong k: they fail to respond on the
  // real label (lost responders) and respond on a label nobody counts.
  // Decisions still land because the margin absorbs 10%.
  const std::size_t n = 256;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto p = A2EParams::laptop_scale(n);
  std::vector<std::uint64_t> beliefs(n, 1);
  beliefs[0] = 0;  // one confused processor to actually convert
  auto labels = [](std::size_t, ProcId q) -> std::uint64_t {
    return q % 10 == 0 ? 7 : 3;
  };
  AlmostToEverywhere a2e(p, 9);
  auto res = a2e.run(net, adv, beliefs, 1, labels);
  EXPECT_TRUE(res.all_good_agree);
}

TEST(A2E, FloodedRequestsAreChargedButCapped) {
  const std::size_t n = 128;
  Network net(n, n / 3);
  FloodingA2EAdversary adv(0.2, 10, /*flood_per_pair=*/512);
  adv.on_start(net);
  auto p = A2EParams::laptop_scale(n);
  p.repeats = 1;
  std::vector<std::uint64_t> beliefs(n, 1);
  AlmostToEverywhere a2e(p, 11);
  auto res = a2e.run(net, adv, beliefs, 1, constant_label(4));
  // Flood traffic is real traffic (charged to corrupt senders)...
  EXPECT_GT(net.ledger().total_bits_sent(net.corrupt_mask(), true), 0u);
  // ...but the per-sender cap keeps knowledgeable overload at zero-ish.
  for (const auto& loop : res.loops)
    EXPECT_LE(loop.overloaded_knowledgeable, n / 20);
}

TEST(A2E, CorruptProcessorsNeverCountedInStats) {
  const std::size_t n = 64;
  Network net(n, n / 3);
  StaticMaliciousAdversary adv(0.3, 12);
  adv.on_start(net);
  auto p = A2EParams::laptop_scale(n);
  std::vector<std::uint64_t> beliefs(n, 1);
  AlmostToEverywhere a2e(p, 13);
  auto res = a2e.run(net, adv, beliefs, 1, constant_label(5));
  EXPECT_EQ(res.agree_count + res.wrong_count, net.good_procs().size());
}

class A2EKnowledge : public ::testing::TestWithParam<double> {};

TEST_P(A2EKnowledge, SafetyHoldsAtEveryKnowledgeLevel) {
  // Whatever the knowledgeable fraction, good processors never flip to a
  // non-M value *in bulk* (the threshold protects them); liveness kicks
  // in once knowledge exceeds the decision margin.
  const double know = GetParam();
  const std::size_t n = 256;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  auto p = A2EParams::laptop_scale(n);
  std::vector<std::uint64_t> beliefs(n, 0);
  Rng pick(17);
  for (auto q : pick.sample_without_replacement(
           n, static_cast<std::size_t>(know * n)))
    beliefs[q] = 1;
  AlmostToEverywhere a2e(p, 18);
  auto res = a2e.run(net, adv, beliefs, 1, constant_label(6));
  const double good = static_cast<double>(net.good_procs().size());
  if (know >= 0.75)
    EXPECT_GE(static_cast<double>(res.agree_count) / good, 0.95);
  // Wrong deciders stay a small minority; at the theorem's boundary
  // (1/2 + eps with eps = 0.1) the paper's a = 32c/eps^2 constant is far
  // above our laptop-scale request budget, so the tail is wider there
  // (`ba_sweep --grid e4`, table E4a) — the bound reflects that.
  const auto allowance = static_cast<std::size_t>(
      know >= 0.75 ? good / 20 : good / 8);
  for (const auto& loop : res.loops)
    EXPECT_LE(loop.decided_wrong, allowance);
}

INSTANTIATE_TEST_SUITE_P(Levels, A2EKnowledge,
                         ::testing::Values(0.6, 0.75, 0.9, 1.0));

}  // namespace
}  // namespace ba
