// Cross-cutting integration properties: determinism, conservation laws of
// the bit ledger, adversary-budget enforcement through full runs, the
// honest/silent/lying fault-style paths, and the global-coin helpers.
#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "core/everywhere.h"
#include "core/global_coin.h"

namespace ba {
namespace {

std::vector<std::uint8_t> random_inputs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> in(n);
  for (auto& b : in) b = rng.flip() ? 1 : 0;
  return in;
}

TEST(Determinism, SameSeedSameRun) {
  const std::size_t n = 64;
  auto run_once = [&](std::uint64_t seed) {
    Network net(n, n / 3);
    StaticMaliciousAdversary adv(0.1, 5);
    AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), seed);
    auto res = proto.run(net, adv, random_inputs(n, 9));
    return std::tuple{res.decided_bit, res.agreement_fraction, res.rounds,
                      net.ledger().total_bits_sent(net.corrupt_mask(),
                                                   false)};
  };
  EXPECT_EQ(run_once(123), run_once(123));
}

TEST(Determinism, DifferentSeedsDiffer) {
  const std::size_t n = 64;
  auto bits_of = [&](std::uint64_t seed) {
    Network net(n, n / 3);
    PassiveStaticAdversary adv({});
    AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), seed);
    proto.run(net, adv, random_inputs(n, 9));
    return net.ledger().total_bits_sent(net.corrupt_mask(), false);
  };
  // Different tournament randomness => different share routing => at
  // least slightly different totals (w.h.p.).
  EXPECT_NE(bits_of(1), bits_of(2));
}

TEST(Ledger, SendReceiveConservation) {
  // Every charged bit has exactly one sender and one receiver.
  const std::size_t n = 64;
  Network net(n, n / 3);
  StaticMaliciousAdversary adv(0.1, 3);
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 4);
  proto.run(net, adv, random_inputs(n, 5));
  std::uint64_t sent = 0, received = 0;
  for (ProcId p = 0; p < n; ++p) {
    sent += net.ledger().bits_sent(p);
    received += net.ledger().bits_received(p);
  }
  // AEBA vote envelopes queued in the final round are never delivered,
  // so sent >= received with a small tail.
  EXPECT_GE(sent, received);
  EXPECT_LE(sent - received, sent / 100);
}

TEST(Budget, NeverExceededByAnyStrategy) {
  const std::size_t n = 64;
  for (int which = 0; which < 3; ++which) {
    Network net(n, n / 3);
    std::unique_ptr<Adversary> adv;
    if (which == 0)
      adv = std::make_unique<StaticMaliciousAdversary>(0.9, 6);  // greedy
    else if (which == 1)
      adv = std::make_unique<AdaptiveWinnerTakeover>(7);
    else
      adv = std::make_unique<CrashAdversary>(0.9, 8);
    AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 9);
    proto.run(net, *adv, random_inputs(n, 10));
    EXPECT_LE(net.corrupt_count(), n / 3);
  }
}

TEST(FaultStyles, CorruptMembersSilentInShareFlows) {
  // Corrupt members that stay silent in share flows
  // (lies_in_share_flows() == false maps to FaultStyle::silent) must still
  // leave the run agreeing on the unanimous input.
  class SilentInShareFlows : public Adversary, public ShareConduct {
   public:
    void on_start(Network& net) override {
      for (ProcId p = 0; p < 12; ++p) net.corrupt(p);
    }
    bool lies_in_share_flows() const override { return false; }
  };
  const std::size_t n = 64;
  Network net(n, n / 3);
  SilentInShareFlows adv;
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 11);
  auto res = proto.run(net, adv, std::vector<std::uint8_t>(n, 1));
  EXPECT_TRUE(res.decided_bit);
  EXPECT_GE(res.agreement_fraction, 0.95);
}

TEST(ArrayChooserHook, AdversaryArraysAreUsed) {
  // An ArrayChooser that gives corrupt processors all-zero arrays: their
  // bin choices are all bin 0 — detectable in the level stats via reduced
  // good winners, but the protocol must still agree.
  class ZeroArrays : public StaticMaliciousAdversary, public ArrayChooser {
   public:
    ZeroArrays() : StaticMaliciousAdversary(0.1, 12) {}
    std::vector<std::uint64_t> choose_array(ProcId, const ArrayLayout& lay,
                                            Rng&) override {
      return std::vector<std::uint64_t>(lay.total_words(), 0);
    }
  };
  const std::size_t n = 64;
  Network net(n, n / 3);
  ZeroArrays adv;
  AlmostEverywhereBA proto(ProtocolParams::laptop_scale(n), 13);
  auto res = proto.run(net, adv, std::vector<std::uint8_t>(n, 1));
  EXPECT_TRUE(res.decided_bit);
  EXPECT_GE(res.agreement_fraction, 0.9);
}

TEST(GlobalCoin, PluralityAndAgreementHelpers) {
  AeResult fake;
  fake.seq_views = {{5, 5, 5, 7}};
  fake.seq_word_good = {true};
  fake.seq_truth = {5};
  std::vector<bool> corrupt(4, false);
  EXPECT_EQ(sequence_plurality(fake, 0, corrupt), 5u);
  EXPECT_DOUBLE_EQ(sequence_agreement(fake, 0, corrupt), 0.75);
  corrupt[3] = true;  // the dissenter is corrupt: full agreement
  EXPECT_DOUBLE_EQ(sequence_agreement(fake, 0, corrupt), 1.0);
}

TEST(GlobalCoin, AssessCountsOnlyIntactWords) {
  AeResult fake;
  fake.seq_views = {{1, 1, 1, 1}, {2, 9, 8, 7}, {3, 3, 3, 3}};
  fake.seq_word_good = {true, true, false};
  fake.seq_truth = {1, 2, 3};
  std::vector<bool> corrupt(4, false);
  auto q = assess_sequence(fake, corrupt, 0.9);
  EXPECT_EQ(q.length, 3u);
  EXPECT_EQ(q.good_owner, 2u);
  EXPECT_EQ(q.good_words, 1u);  // word 1 is honest but shattered
}

TEST(Everywhere, RoundsAccumulateAcrossPhases) {
  const std::size_t n = 64;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  EverywhereBA proto = EverywhereBA::make(n, 14);
  auto res = proto.run(net, adv, random_inputs(n, 15));
  EXPECT_GT(res.rounds, res.ae.rounds);  // A2E added network rounds
  EXPECT_EQ(res.rounds, net.round());
}

TEST(Everywhere, BudgetSharedAcrossPhases) {
  // One Network carries both phases; the adaptive budget spans them.
  const std::size_t n = 64;
  Network net(n, n / 3);
  StaticMaliciousAdversary adv(0.3, 16);
  EverywhereBA proto = EverywhereBA::make(n, 17);
  proto.run(net, adv, random_inputs(n, 18));
  EXPECT_LE(net.corrupt_count(), n / 3);
  EXPECT_GE(net.corrupt_count(), n / 5);  // the strategy did corrupt
}

class EverywhereSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EverywhereSizes, EndToEndAcrossTreeShapes) {
  const std::size_t n = GetParam();
  Network net(n, n / 3);
  StaticMaliciousAdversary adv(0.08, 19);
  EverywhereBA proto = EverywhereBA::make(n, 20);
  auto res = proto.run(net, adv, random_inputs(n, 21));
  EXPECT_TRUE(res.validity);
  const double good = static_cast<double>(net.good_procs().size());
  EXPECT_GE(static_cast<double>(res.a2e.agree_count) / good, 0.95)
      << "n = " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, EverywhereSizes,
                         ::testing::Values(64, 100, 128, 256));

}  // namespace
}  // namespace ba
