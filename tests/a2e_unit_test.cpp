// Unit-level tests for the Algorithm 3 engine: parameter derivation,
// overload and flooding caps, decision thresholds and the tie rule,
// stickiness, label view divergence, flood-id validation, and a pinned
// matrix of exact outcomes.
#include <gtest/gtest.h>

#include <memory>
#include <utility>

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

TEST(A2EDecision, UniqueMessageAtThresholdDecides) {
  std::vector<std::uint64_t> msgs = {7, 9, 7, 7, 9};
  EXPECT_EQ(a2e_decision(msgs.data(), msgs.size(), 3), 7u);
}

TEST(A2EDecision, TieStaysUndecided) {
  // Two messages both reach the threshold: no decision this loop,
  // whatever order the responses arrived in.
  std::vector<std::uint64_t> msgs = {1, 0, 0, 1, 1, 0};
  EXPECT_EQ(a2e_decision(msgs.data(), msgs.size(), 3), std::nullopt);
  std::vector<std::uint64_t> swapped = {0, 1, 1, 0, 0, 1};
  EXPECT_EQ(a2e_decision(swapped.data(), swapped.size(), 3), std::nullopt);
}

TEST(A2EDecision, BelowThresholdStaysUndecided) {
  std::vector<std::uint64_t> msgs = {5, 5, 6, 7};
  EXPECT_EQ(a2e_decision(msgs.data(), msgs.size(), 3), std::nullopt);
  EXPECT_EQ(a2e_decision(msgs.data(), 0, 1), std::nullopt);
}

/// Floods from one corrupt processor with a single bad field.
class RogueFlooder : public Adversary, public A2EAttacker {
 public:
  RogueFlooder(ProcId from, ProcId to) : from_(from), to_(to) {}
  void on_start(Network& net) override { net.corrupt(0); }
  void flood_requests(const Network&, std::size_t, const A2EParams&,
                      std::vector<FloodRequest>& out) override {
    out.push_back({from_, to_, 0});
  }

 private:
  ProcId from_, to_;
};

TEST(A2E, RejectsFloodIdsOutOfRange) {
  const std::size_t n = 64;
  auto p = A2EParams::laptop_scale(n);
  p.repeats = 1;
  std::vector<std::uint64_t> beliefs(n, 1);
  for (const auto& [from, to] : {std::pair<ProcId, ProcId>{n, 1},
                                 std::pair<ProcId, ProcId>{0, n}}) {
    Network net(n, n / 3);
    RogueFlooder adv(from, to);
    AlmostToEverywhere a2e(p, 3);
    EXPECT_THROW(a2e.run(net, adv, beliefs, 1, constant_label(0)),
                 std::logic_error);
  }
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
  for (ProcId q = 0; q < n; ++q) {
    if (!net.is_corrupt(q)) {
      EXPECT_EQ(res.message[q], m);
    }
  }
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
  if (know >= 0.75) {
    EXPECT_GE(static_cast<double>(res.agree_count) / good, 0.95);
  }
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

// ---- Pinned outcomes. Each cell digests the whole A2EResult (beliefs,
// decided flags, counts, rounds, per-loop stats) and the three ledger
// columns of every processor, and compares the digest to a recorded
// constant, so any change to a draw, a charge or a decision shows up here.
// The flooding cells at n <= 64 (threshold 12 of 24 responses) include
// processors whose busiest label splits 12/12; they stay undecided that
// loop (see TieStaysUndecided).

enum class PinAdversary { kFlooding, kStaticMalicious, kPassive };
enum class PinLabels { kShared, kDivergent, kConstant };

std::uint64_t pin_digest(std::size_t n, PinAdversary which, PinLabels view) {
  Network net(n, n / 3);
  std::unique_ptr<Adversary> adv;
  switch (which) {
    case PinAdversary::kFlooding:
      adv = std::make_unique<FloodingA2EAdversary>(0.25, 31 + n);
      break;
    case PinAdversary::kStaticMalicious:
      adv = std::make_unique<StaticMaliciousAdversary>(0.3, 37 + n);
      break;
    case PinAdversary::kPassive: {
      std::vector<ProcId> ids;
      for (ProcId p = 3; p < n; p += 7) ids.push_back(p);
      adv = std::make_unique<PassiveStaticAdversary>(ids);
      break;
    }
  }
  adv->on_start(net);
  std::function<std::uint64_t(std::size_t, ProcId)> labels;
  switch (view) {
    case PinLabels::kShared:
      labels = [](std::size_t loop, ProcId) {
        std::uint64_t st = 0xC0FFEE + loop;
        return splitmix64(st);
      };
      break;
    case PinLabels::kDivergent:
      labels = [](std::size_t loop, ProcId q) {
        std::uint64_t st = 0xC0FFEE + loop;
        return splitmix64(st) + (q % 10 == 0 ? 1 : 0);
      };
      break;
    case PinLabels::kConstant:
      labels = constant_label(2);
      break;
  }
  std::vector<std::uint64_t> beliefs(n, 0);
  Rng pick(41 + n);
  for (auto q : pick.sample_without_replacement(n, (7 * n) / 10))
    beliefs[q] = 1;
  AlmostToEverywhere a2e(A2EParams::laptop_scale(n), 43 + n);
  const A2EResult res = a2e.run(net, *adv, beliefs, 1, labels);

  Fnv1a d;
  for (auto m : res.message) d.mix(m);
  for (bool b : res.decided) d.mix(b ? 1 : 0);
  d.mix(res.agree_count);
  d.mix(res.wrong_count);
  d.mix(res.all_good_agree ? 1 : 0);
  d.mix(res.rounds);
  for (const auto& loop : res.loops) {
    d.mix(loop.loop);
    d.mix(loop.overloaded_knowledgeable);
    d.mix(loop.decided_total);
    d.mix(loop.decided_wrong);
    d.mix(loop.loop_success ? 1 : 0);
  }
  const BitLedger& ledger = net.ledger();
  for (ProcId p = 0; p < n; ++p) {
    d.mix(ledger.bits_sent(p));
    d.mix(ledger.msgs_sent(p));
    d.mix(ledger.bits_received(p));
  }
  return d.h;
}

struct PinCell {
  std::size_t n;
  PinAdversary adversary;
  PinLabels labels;
  std::uint64_t digest;
};

TEST(A2EPinned, MatrixMatchesRecordedDigests) {
  using A = PinAdversary;
  using L = PinLabels;
  const PinCell cells[] = {
      {24, A::kFlooding, L::kShared,
       0x76bd7f868e8c0567ULL},
      {24, A::kFlooding, L::kDivergent,
       0xe30fa865df5e69a8ULL},
      {24, A::kFlooding, L::kConstant,
       0x7ce62ff8d31849c1ULL},
      {24, A::kStaticMalicious, L::kShared,
       0x47d1f17658b3da26ULL},
      {24, A::kStaticMalicious, L::kDivergent,
       0xdfbbcdb8f1afd773ULL},
      {24, A::kStaticMalicious, L::kConstant,
       0xf6b3064168e5442aULL},
      {24, A::kPassive, L::kShared,
       0x26f9d9905fa97798ULL},
      {24, A::kPassive, L::kDivergent,
       0xb973d75d554226a9ULL},
      {24, A::kPassive, L::kConstant,
       0xbabb1e11ea769d34ULL},
      {64, A::kFlooding, L::kShared,
       0x02610cc7fc7b7e45ULL},
      {64, A::kFlooding, L::kDivergent,
       0x4ef9e548ff5aa8faULL},
      {64, A::kFlooding, L::kConstant,
       0x4a618ef71c82f639ULL},
      {64, A::kStaticMalicious, L::kShared,
       0x623b6f5ac4ebc0deULL},
      {64, A::kStaticMalicious, L::kDivergent,
       0xe4ec481828d9c8ddULL},
      {64, A::kStaticMalicious, L::kConstant,
       0x20972fdadaadc3f6ULL},
      {64, A::kPassive, L::kShared,
       0x8856a60d46775053ULL},
      {64, A::kPassive, L::kDivergent,
       0xa03f855d44c05f1aULL},
      {64, A::kPassive, L::kConstant,
       0xd84cea43e596fc75ULL},
      {128, A::kFlooding, L::kShared,
       0x15505d456efa4a26ULL},
      {128, A::kFlooding, L::kDivergent,
       0x039082aa156ba9f3ULL},
      {128, A::kFlooding, L::kConstant,
       0x2bf869fac55d60a0ULL},
      {128, A::kStaticMalicious, L::kShared,
       0x4a9bd031f2078abdULL},
      {128, A::kStaticMalicious, L::kDivergent,
       0x63e088b910b8c8feULL},
      {128, A::kStaticMalicious, L::kConstant,
       0x8293965043de4d88ULL},
      {128, A::kPassive, L::kShared,
       0xfabd4515603929c1ULL},
      {128, A::kPassive, L::kDivergent,
       0x3483d168f4b06760ULL},
      {128, A::kPassive, L::kConstant,
       0xc1b05fd109bbf371ULL},
      {500, A::kFlooding, L::kShared,
       0x1ac046432b605bc9ULL},
      {500, A::kFlooding, L::kDivergent,
       0x3e01beff136a1359ULL},
      {500, A::kFlooding, L::kConstant,
       0xbf6481917464512aULL},
      {500, A::kStaticMalicious, L::kShared,
       0x548241f25be72210ULL},
      {500, A::kStaticMalicious, L::kDivergent,
       0x305b68aaaeadd0c7ULL},
      {500, A::kStaticMalicious, L::kConstant,
       0x8984a901b1d8022dULL},
      {500, A::kPassive, L::kShared,
       0x6d1f1e03b80a9b12ULL},
      {500, A::kPassive, L::kDivergent,
       0xf75c4a4c9a011e43ULL},
      {500, A::kPassive, L::kConstant,
       0x7530f3e95b43d49cULL},
  };
  for (const PinCell& c : cells) {
    SCOPED_TRACE(::testing::Message()
                 << "n=" << c.n
                 << " adversary=" << static_cast<int>(c.adversary)
                 << " labels=" << static_cast<int>(c.labels));
    EXPECT_EQ(pin_digest(c.n, c.adversary, c.labels), c.digest);
  }
}

}  // namespace
}  // namespace ba
