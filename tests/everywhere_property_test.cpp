// Property tests for the full stack under combined adversary behaviours —
// the cross-product the individual suites don't cover: adaptive corruption
// spanning both phases, crash+malicious mixes, and the agreement/validity
// invariants that must hold under every strategy.
#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "core/everywhere.h"

namespace ba {
namespace {

std::vector<std::uint8_t> random_inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> in(n);
  for (auto& b : in) b = rng.flip() ? 1 : 0;
  return in;
}

/// An adversary that crashes some processors and corrupts others
/// maliciously is still one adversary with one budget. Model: malicious
/// behaviour for all, but only a sub-fraction rushes votes.
class MixedAdversary : public Adversary,
                       public VoteRusher,
                       public ShareConduct {
 public:
  MixedAdversary(double fraction, std::uint64_t seed)
      : inner_(fraction, seed) {}
  void on_start(Network& net) override { inner_.on_start(net); }
  void rush_votes(AebaMachine& machine, Network& net,
                  std::uint64_t round) override {
    if (round % 2 == 0) inner_.rush_votes(machine, net, round);
    // Odd rounds: silent (crash-like) — an adversary may do anything,
    // including nothing.
  }
  bool lies_in_share_flows() const override { return true; }

 private:
  StaticMaliciousAdversary inner_;
};

struct Verdict {
  bool validity;
  bool all_agree;
  double ae_agreement;
};

Verdict run_stack(std::size_t n, Adversary& adv,
                  const std::vector<std::uint8_t>& inputs,
                  std::uint64_t seed) {
  Network net(n, n / 3);
  EverywhereBA proto = EverywhereBA::make(n, seed);
  auto res = proto.run(net, adv, inputs);
  return {res.validity, res.all_good_agree, res.ae.agreement_fraction};
}

TEST(EverywhereProperty, ValidityHoldsUnderEveryStrategy) {
  const std::size_t n = 64;
  const auto ones = std::vector<std::uint8_t>(n, 1);
  {
    PassiveStaticAdversary adv({});
    auto v = run_stack(n, adv, ones, 31);
    EXPECT_TRUE(v.validity);
    EXPECT_TRUE(v.all_agree);
  }
  {
    CrashAdversary adv(0.15, 32);
    auto v = run_stack(n, adv, ones, 33);
    EXPECT_TRUE(v.validity);
  }
  {
    StaticMaliciousAdversary adv(0.1, 34);
    auto v = run_stack(n, adv, ones, 35);
    EXPECT_TRUE(v.validity);
  }
  {
    MixedAdversary adv(0.1, 36);
    auto v = run_stack(n, adv, ones, 37);
    EXPECT_TRUE(v.validity);
  }
  {
    AdaptiveWinnerTakeover adv(38, /*corrupt_share_holders=*/false);
    auto v = run_stack(n, adv, ones, 39);
    EXPECT_TRUE(v.validity);
  }
}

TEST(EverywhereProperty, IntermittentRushingIsNoWorseThanConstant) {
  const std::size_t n = 64;
  auto inputs = random_inputs(n, 40);
  MixedAdversary mixed(0.1, 41);
  auto v = run_stack(n, mixed, inputs, 42);
  EXPECT_GE(v.ae_agreement, 0.85);
}

TEST(EverywhereProperty, ZeroCorruptionIsPerfect) {
  const std::size_t n = 100;  // non-power-of-two: ragged tree path
  PassiveStaticAdversary adv({});
  auto v = run_stack(n, adv, random_inputs(n, 43), 44);
  EXPECT_TRUE(v.validity);
  EXPECT_TRUE(v.all_agree);
  EXPECT_GE(v.ae_agreement, 0.98);
}

TEST(EverywhereProperty, AgreementBitIndependentOfWhoIsCorrupt) {
  // Validity pins the outcome under unanimity regardless of *which*
  // processors the adversary owns.
  const std::size_t n = 64;
  const auto zeros = std::vector<std::uint8_t>(n, 0);
  for (std::uint64_t pick = 0; pick < 3; ++pick) {
    Rng rng(50 + pick);
    std::vector<ProcId> set;
    for (auto p : rng.sample_without_replacement(n, 6))
      set.push_back(static_cast<ProcId>(p));
    PassiveStaticAdversary adv(set);
    Network net(n, n / 3);
    EverywhereBA proto = EverywhereBA::make(n, 60 + pick);
    auto res = proto.run(net, adv, zeros);
    EXPECT_FALSE(res.decided_bit);
    EXPECT_TRUE(res.validity);
  }
}

TEST(EverywhereProperty, RepeatedRunsIndependentOutcomesOnSplit) {
  // With split inputs the decided bit follows the protocol's coins: over
  // several seeds both outcomes should appear (no hidden bias).
  const std::size_t n = 64;
  std::size_t ones = 0, runs = 6;
  for (std::uint64_t s = 0; s < runs; ++s) {
    PassiveStaticAdversary adv({});
    Network net(n, n / 3);
    EverywhereBA proto = EverywhereBA::make(n, 70 + s);
    auto res = proto.run(net, adv, random_inputs(n, 80 + s));
    ones += res.decided_bit ? 1 : 0;
  }
  EXPECT_GT(ones, 0u);
  EXPECT_LT(ones, runs);
}

}  // namespace
}  // namespace ba
