// Tests for the quadratic baselines (Rabin, Ben-Or) and the non-adaptive
// processor-election tournament, including the E10 adaptive attack.
#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "baseline/benor_ba.h"
#include "baseline/processor_election.h"
#include "baseline/rabin_ba.h"

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

// ---------------------------------------------------------------- Rabin --

TEST(Rabin, UnanimousOneRound) {
  const std::size_t n = 60;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  SharedRandomCoins coins(Rng(1));
  auto res = run_rabin_ba(net, adv, unanimous(n, 1), coins, 10);
  EXPECT_TRUE(res.all_good_agree);
  EXPECT_TRUE(res.decided_bit);
  EXPECT_TRUE(res.validity);
  EXPECT_LE(res.rounds, 2u);
}

TEST(Rabin, SplitInputsConverge) {
  const std::size_t n = 60;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  SharedRandomCoins coins(Rng(2));
  auto res = run_rabin_ba(net, adv, random_inputs(n, 3), coins, 20);
  EXPECT_TRUE(res.all_good_agree);
}

TEST(Rabin, SurvivesMaliciousThird) {
  const std::size_t n = 90;
  Network net(n, n / 3);
  StaticMaliciousAdversary adv(0.3, 4);
  SharedRandomCoins coins(Rng(5));
  auto res = run_rabin_ba(net, adv, unanimous(n, 1), coins, 30);
  EXPECT_TRUE(res.decided_bit);
  EXPECT_GE(res.agreement_fraction, 0.99);
}

TEST(Rabin, QuadraticBitCost) {
  // The point of the baseline: every round costs ~n bits per processor.
  const std::size_t n = 100;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  SharedRandomCoins coins(Rng(6));
  auto res = run_rabin_ba(net, adv, unanimous(n, 0), coins, 10);
  const auto max_bits = net.ledger().max_bits_sent(net.corrupt_mask(), false);
  // n-1 messages of (1 + header) bits per round.
  EXPECT_GE(max_bits, (n - 1) * (1 + kHeaderBits) * res.rounds);
}

// ---------------------------------------------------------------- BenOr --

TEST(BenOr, UnanimousDecidesFast) {
  const std::size_t n = 50;
  Network net(n, n / 8);
  PassiveStaticAdversary adv({});
  auto res = run_benor_ba(net, adv, unanimous(n, 1), 7, 50);
  EXPECT_TRUE(res.all_good_agree);
  EXPECT_TRUE(res.decided_bit);
  EXPECT_TRUE(res.validity);
}

TEST(BenOr, UnanimousZero) {
  const std::size_t n = 50;
  Network net(n, n / 8);
  PassiveStaticAdversary adv({});
  auto res = run_benor_ba(net, adv, unanimous(n, 0), 8, 50);
  EXPECT_FALSE(res.decided_bit);
  EXPECT_TRUE(res.all_good_agree);
}

TEST(BenOr, SplitConvergesEventually) {
  // Local coins: expected polynomial rounds at this scale with no
  // adversary steering.
  const std::size_t n = 30;
  Network net(n, n / 8);
  PassiveStaticAdversary adv({});
  auto res = run_benor_ba(net, adv, random_inputs(n, 9), 10, 400);
  EXPECT_TRUE(res.all_good_agree);
}

TEST(BenOr, SurvivesCrashMinority) {
  const std::size_t n = 55;
  Network net(n, n / 5);
  PassiveStaticAdversary adv({0, 1, 2, 3, 4, 5, 6, 7, 8, 9});
  adv.on_start(net);
  auto res = run_benor_ba(net, adv, unanimous(n, 1), 11, 100);
  EXPECT_TRUE(res.decided_bit);
  EXPECT_TRUE(res.all_good_agree);
}

TEST(BenOr, TallySkipsForeignTags) {
  // With t = 0 a single phase-2 proposal decides everyone, and a 2-2
  // split proposes nothing, so the clean run needs more than one round.
  // One extra envelope, sent in the first vote round under another tag
  // and carrying a 1, would give processor 0 a 3-of-4 majority for 1 if
  // the vote tally kept it: processor 0 would propose 1 and everyone
  // would decide in round 1. The tally must match the run without it.
  const std::vector<std::uint8_t> inputs{0, 0, 1, 1};
  const auto run = [&](bool stray) {
    Network net(4, 0);
    PassiveStaticAdversary adv({});
    if (stray) net.send(1, 0, make_value_payload(0xBE7A, 1, 2));
    return run_benor_ba(net, adv, inputs, 12, 50);
  };
  const BaselineResult clean = run(false);
  const BaselineResult strayed = run(true);
  EXPECT_GT(clean.rounds, 1u);
  EXPECT_EQ(strayed.rounds, clean.rounds);
  EXPECT_EQ(strayed.decided_bit, clean.decided_bit);
  EXPECT_EQ(strayed.agreement_fraction, clean.agreement_fraction);
  EXPECT_EQ(strayed.all_good_agree, clean.all_good_agree);
}

// --------------------------------------------------- processor election --

TreeParams pe_tree(std::size_t n) {
  TreeParams t;
  t.n = n;
  t.q = 4;
  t.k1 = 8;
  t.d_up = 12;
  t.d_link = 4;
  return t;
}

TEST(ProcessorElection, WorksAgainstStaticAdversary) {
  const std::size_t n = 256;
  Network net(n, n / 3);
  StaticMaliciousAdversary adv(0.15, 12);
  ProcessorElectionBA proto(pe_tree(n), 2, 13);
  auto res = proto.run(net, adv, unanimous(n, 1));
  EXPECT_TRUE(res.ba.decided_bit);
  EXPECT_GE(res.ba.agreement_fraction, 0.95);
  EXPECT_FALSE(res.committee.empty());
  // Static 15% corruption leaves the committee mostly honest.
  EXPECT_LT(res.committee_corrupt, res.committee.size() / 2);
}

TEST(ProcessorElection, CollapsesUnderAdaptiveTakeover) {
  // The E10 headline: an adaptive adversary corrupts the winners the
  // moment they are elected; the final committee is fully corrupt and
  // agreement collapses. This is exactly the attack the array election
  // survives (see core_test AdaptiveWinnerTakeoverDoesNotLearnOrBreak).
  const std::size_t n = 256;
  Network net(n, n / 3);
  AdaptiveWinnerTakeover adv(14, /*corrupt_share_holders=*/false);
  ProcessorElectionBA proto(pe_tree(n), 2, 15);
  auto res = proto.run(net, adv, unanimous(n, 1));
  EXPECT_EQ(res.committee_corrupt, res.committee.size());
  // Equivocating committee: half the processors see 0, half see 1.
  EXPECT_LT(res.ba.agreement_fraction, 0.9);
}

TEST(ProcessorElection, SubQuadraticAgainstStatic) {
  const std::size_t n = 256;
  Network net(n, n / 3);
  PassiveStaticAdversary adv({});
  ProcessorElectionBA proto(pe_tree(n), 2, 16);
  proto.run(net, adv, unanimous(n, 0));
  // Committee members legitimately send Θ(n); the claim is about totals:
  // below one round of the n² messages an all-to-all protocol sends. (At
  // n = 256 framing headers dominate; the scaling exponent separation is
  // what bench E9 demonstrates.)
  const auto total = net.ledger().total_bits_sent(net.corrupt_mask(), false);
  EXPECT_GT(total, 0u);
  EXPECT_LT(total, n * n * (1 + kHeaderBits));
}

/// Corrupts the first half (rounded down) of the final committee the
/// moment it is elected. With `stray`, also sends one envelope under a
/// foreign tag into the decision round, carrying the value that would
/// flip the decision of the first good odd processor if the tally kept
/// it.
class HalfCommitteeTakeover : public Adversary, public TournamentObserver {
 public:
  explicit HalfCommitteeTakeover(bool stray) : stray_(stray) {}

  void on_level_elected(
      const TournamentTree& tree, std::size_t level,
      const std::vector<std::vector<std::uint32_t>>& winners_per_node,
      Network& net) override {
    if (level != tree.num_levels()) return;
    const std::vector<std::uint32_t>& committee = winners_per_node[0];
    for (std::size_t i = 0; i < committee.size() / 2; ++i)
      net.corrupt(committee[i]);
    if (!stray_) return;
    ProcId target = 1;
    while (net.is_corrupt(target)) target += 2;
    // With all inputs 0 the good members send 0 and the corrupt ones
    // send 1 to an odd processor. Of c votes it sees floor(c/2) ones: an
    // even c is a tie, which decides 1 and one more 0 breaks; an odd c
    // is one short of a tie, which one more 1 makes up.
    const std::uint64_t flip = committee.size() % 2;
    net.send(0, target, make_value_payload(0xE1ED, flip, 1));
  }

 private:
  bool stray_;
};

TEST(ProcessorElection, DecisionTallySkipsForeignTags) {
  const std::size_t n = 256;
  const auto run = [n](bool stray) {
    Network net(n, n / 3);
    HalfCommitteeTakeover adv(stray);
    ProcessorElectionBA proto(pe_tree(n), 2, 17);
    return proto.run(net, adv, unanimous(n, 0));
  };
  const ProcessorElectionResult clean = run(false);
  const ProcessorElectionResult strayed = run(true);
  ASSERT_GE(clean.committee.size(), 2u);
  EXPECT_EQ(clean.committee_corrupt, clean.committee.size() / 2);
  EXPECT_EQ(strayed.committee, clean.committee);
  EXPECT_EQ(strayed.committee_corrupt, clean.committee_corrupt);
  EXPECT_EQ(strayed.ba.decided_bit, clean.ba.decided_bit);
  EXPECT_EQ(strayed.ba.agreement_fraction, clean.ba.agreement_fraction);
  EXPECT_EQ(strayed.ba.all_good_agree, clean.ba.all_good_agree);
  EXPECT_EQ(strayed.ba.validity, clean.ba.validity);
  EXPECT_EQ(strayed.ba.rounds, clean.ba.rounds);
}

// ------------------------------------------------------------ adversary --

TEST(Strategies, CorruptFractionRespectsBudget) {
  Network net(100, 20);
  StaticMaliciousAdversary adv(0.5, 17);  // wants 50, budget 20
  adv.on_start(net);
  EXPECT_EQ(net.corrupt_count(), 20u);
}

TEST(Strategies, CrashAdversaryIsSilentStyle) {
  CrashAdversary adv(0.2, 18);
  EXPECT_FALSE(adv.lies_in_share_flows());
  StaticMaliciousAdversary mal(0.2, 19);
  EXPECT_TRUE(mal.lies_in_share_flows());
}

TEST(Strategies, BinStuffingJoinsLightest) {
  std::vector<std::uint32_t> good{0, 0, 1};
  auto bins = bins_with_stuffing(good, 2, 3);
  ASSERT_EQ(bins.size(), 5u);
  EXPECT_EQ(bins[3], 2u);  // bin 2 was empty -> lightest
  EXPECT_EQ(bins[4], 1u);  // then bin 1 (load 1 vs bin2 now 1... ties -> min)
}

TEST(Strategies, SpreadCoversBins) {
  auto bins = bins_with_spread({}, 6, 3);
  std::size_t load[3] = {};
  for (auto b : bins) ++load[b];
  EXPECT_EQ(load[0], 2u);
  EXPECT_EQ(load[1], 2u);
  EXPECT_EQ(load[2], 2u);
}

TEST(Strategies, RandomProcSetDistinctAndBounded) {
  Rng rng(20);
  auto set = random_proc_set(50, 10, rng);
  EXPECT_EQ(set.size(), 10u);
  for (auto p : set) EXPECT_LT(p, 50u);
}

}  // namespace
}  // namespace ba
