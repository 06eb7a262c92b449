// Serial-vs-parallel parity battery for the round engine (common/pool.h),
// driven through the scenario layer (sim/protocol.h).
//
// Parallelism is a hard determinism contract, not a best-effort speedup:
// every protocol run at a fixed seed must produce byte-identical bit
// ledgers and decisions whether the pool runs 1, 2, or 8 workers. The
// protocol scenarios are registry specs (sim/scenario.h) whose
// RunReport::fingerprint digests everything observable from a run — the
// full per-processor ledger (bits/messages sent, bits received),
// decisions, agreement state, round counts, released sequence views —
// and each test asserts the fingerprint is invariant under the worker
// count. The fingerprints are additionally pinned to committed constants:
// the scenario layer's per-kind run functions must reproduce the
// historical hand-rolled wiring bit for bit, and a pinned digest catches
// any drift in that wiring, Rng draw order, or ledger charging. (If a future PR
// deliberately changes protocol draw order, re-record the constants from
// a trusted serial run — the full procedure is documented under
// "Re-pinning the parity baseline" in docs/ARCHITECTURE.md. The pins
// below are the forked-stream baseline: sendOpen lying-sender garbage and
// sendDown decode-failure garbage both come from salted stream forks, so
// scenarios exercising lying senders re-recorded once for each.)
//
// Scenarios mirror the examples (quickstart, randomness_beacon) and one
// E-series configuration per protocol family: AEBA with unreliable coins
// (E3), Ben-Or (E9), almost-everywhere-to-everywhere (E4), and universe
// reduction (E13). Three harness-level scenarios (the ShareFlow secret-
// sharing storm, mixed-tag delivery, and multicast staging) exercise
// layers below run_scenario and stay hand-rolled.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "common/pool.h"
#include "core/share_flow.h"
#include "net/network.h"
#include "sim/protocol.h"
#include "sim/scenario.h"
#include "transport/transport.h"
#include "tree/tournament_tree.h"

namespace ba {
namespace {

using sim::RunDigest;
using sim::ScenarioRegistry;
using sim::ScenarioSpec;

/// Digest the complete per-processor ledger — byte-identical ledgers are
/// checked processor by processor, not in aggregate, so a reshuffled
/// charge cannot cancel out. (Protocol scenarios get this via
/// sim::mix_run_ledger inside their fingerprint.)
void mix_ledger(RunDigest& d, const Network& net) { sim::mix_run_ledger(d, net); }

/// Runs `scenario` at 1, 2, and 8 pool workers and asserts identical
/// fingerprints; restores the environment-default worker count after.
/// When `expected` is nonzero the serial fingerprint must also equal it.
void expect_parity(const char* name,
                   const std::function<std::uint64_t()>& scenario,
                   std::uint64_t expected = 0) {
  Pool::set_threads(1);
  const std::uint64_t serial = scenario();
  Pool::set_threads(2);
  const std::uint64_t two = scenario();
  Pool::set_threads(8);
  const std::uint64_t eight = scenario();
  Pool::set_threads(0);
  EXPECT_EQ(serial, two) << name << ": 2 workers diverged from serial";
  EXPECT_EQ(serial, eight) << name << ": 8 workers diverged from serial";
  if (expected != 0) {
    EXPECT_EQ(serial, expected)
        << name << ": scenario-layer wiring drifted from the recorded "
        << "hand-rolled digest";
  }
}

/// Registry scenario -> serial-run fingerprint.
std::function<std::uint64_t()> registry_scenario(ScenarioSpec spec) {
  return [spec] { return sim::run_scenario(spec).fingerprint; };
}

// ------------------------------------------------------------ scenarios --

TEST(ParallelParity, Quickstart) {
  // examples/quickstart.cpp at test scale: full everywhere BA under the
  // static malicious adversary, split inputs.
  expect_parity("quickstart",
                registry_scenario(ScenarioRegistry::get("quickstart")
                                      .with_n(64)),
                0xc0344b1e666f6c7aULL);
}

TEST(ParallelParity, QuickstartCrash) {
  // Crash faults run the share flows in the silent style: dropped
  // records, groups below threshold and short leaf exchanges.
  expect_parity("quickstart_crash",
                registry_scenario(ScenarioRegistry::get("quickstart")
                                      .with_n(64)
                                      .with_adversary(
                                          sim::AdversaryKind::kCrash)),
                0x1ee89616d1822218ULL);
}

TEST(ParallelParity, QuickstartAdaptiveTakeover) {
  // Mid-run corruptions change the lying masks between exposures, so
  // every cached exposure plan built before a takeover must be rebuilt.
  expect_parity("quickstart_takeover",
                registry_scenario(ScenarioRegistry::get("quickstart")
                                      .with_n(64)
                                      .with_adversary(
                                          sim::AdversaryKind::
                                              kAdaptiveTakeover)),
                0x81c53e03b8835a82ULL);
}

TEST(ParallelParity, QuickstartIsHistoryIndependent) {
  // Runs in one process share nothing: a run after other seeds and
  // other worker counts reproduces the pin of a fresh process. Caches
  // that outlived a run (exposure plans, decoders) would break this.
  const ScenarioSpec spec = ScenarioRegistry::get("quickstart").with_n(64);
  const std::uint64_t first = sim::run_scenario(spec.with_workers(1), 0)
                                  .fingerprint;
  const std::uint64_t other = sim::run_scenario(spec.with_workers(4), 1)
                                  .fingerprint;
  const std::uint64_t again = sim::run_scenario(spec.with_workers(2), 0)
                                  .fingerprint;
  EXPECT_EQ(first, 0xc0344b1e666f6c7aULL);
  EXPECT_EQ(again, 0xc0344b1e666f6c7aULL);
  EXPECT_NE(other, first);
}

TEST(ParallelParity, RandomnessBeacon) {
  // examples/randomness_beacon.cpp at test scale: the released §3.5
  // sequence views are per-processor words — any divergent view flips
  // the fingerprint.
  expect_parity("randomness_beacon",
                registry_scenario(ScenarioRegistry::get("randomness_beacon")
                                      .with_n(64)),
                0xc1247447063c9255ULL);
}

TEST(ParallelParity, AebaUnreliableCoins) {
  // E3 configuration at test scale: standalone AEBA over a sparse random
  // graph with unreliable coins (a third of the rounds adversarial),
  // three parallel instances, rushing malicious votes.
  expect_parity("aeba_e3",
                registry_scenario(ScenarioRegistry::get("e3_aeba")
                                      .with_n(96)
                                      .with_aeba_rounds(16)
                                      .with_aeba_instances(3)),
                0x6febc6403a04a061ULL);
}

TEST(ParallelParity, BenOr) {
  // E9 configuration: Ben-Or's local-coin baseline under a crash
  // minority, split inputs.
  expect_parity("benor_e9",
                registry_scenario(ScenarioRegistry::get("e9_benor_small")),
                0x77de7115cdb0ef05ULL);
}

TEST(ParallelParity, AlmostToEverywhere) {
  // E4 configuration at test scale: A2E under request flooding with
  // wrong answers from a corrupt fifth.
  expect_parity("a2e_e4",
                registry_scenario(ScenarioRegistry::get("e4_a2e")
                                      .with_n(256)),
                0xe5a72b55990077d1ULL);
}

TEST(ParallelParity, UniverseReduction) {
  // E13 configuration at test scale: tournament-fuelled committee
  // sampling.
  expect_parity("universe_e13",
                registry_scenario(
                    ScenarioRegistry::get("e13_universe_small")),
                0xa96cddf28cb0b9f0ULL);
}

// ---------------------------------------- partial-synchrony scenarios --

TEST(ParallelParity, BoundedDelayBenOr) {
  // Ben-Or under the bounded-delay scheduler (delta_max = 2 with the
  // matching grace window): delayed votes still reach their phase's
  // tally, so the protocol decides unanimously. The delay draws are a
  // serial pre-pass and the per-receiver merges are draw-free, so the
  // worker count must stay unobservable.
  expect_parity("benor_delay",
                registry_scenario(ScenarioRegistry::get("benor_delay")),
                0x788f2115ce4705c1ULL);
}

TEST(ParallelParity, ReorderRushBenOr) {
  // The full adversarial mode: delay + within-round reordering.
  // Reordering only permutes one sender's messages after the counting
  // sort, and Ben-Or tallies one message per (sender, tag) pair — so this
  // pin equals the bounded-delay one. That equality is itself part of
  // the contract.
  expect_parity("benor_rush",
                registry_scenario(ScenarioRegistry::get("benor_rush")),
                0x788f2115ce4705c1ULL);
}

TEST(ParallelParity, BoundedDelayEverywhere) {
  // Everywhere BA absorbing a small delay (tournament agreement sags,
  // A2E repairs it) — the deepest protocol stack under the scheduler.
  expect_parity("everywhere_delay",
                registry_scenario(
                    ScenarioRegistry::get("everywhere_delay")),
                0x1b834c8719624b8fULL);
}

TEST(ParallelParity, BoundedDelayEverywhereBreakPoint) {
  // The degradation point the registry pins: delta_max = 12 at n = 64
  // breaks all-good agreement (see docs/ARCHITECTURE.md). Broken-synchrony
  // runs must be exactly as reproducible as healthy ones.
  expect_parity("everywhere_delay_break",
                registry_scenario(
                    ScenarioRegistry::get("everywhere_delay_break")),
                0x81fc997ef1decf4fULL);
}

TEST(ParallelParity, ReorderRushEverywhere) {
  // Reorder mode over the everywhere stack (not a registry entry: the
  // registry pins the bounded-delay pair; this pins the third mode).
  expect_parity("everywhere_rush",
                registry_scenario(ScenarioRegistry::get("quickstart")
                                      .with_n(64)
                                      .with_scheduler(
                                          sim::SchedulerKind::kReorderRush)
                                      .with_delta_max(2)
                                      .with_scheduler_seed(5)),
                0x100d29def1a20cd1ULL);
}

TEST(ParallelParity, DeltaZeroSchedulerReproducesLockstepPins) {
  // delta_max = 0 must be byte-identical to lockstep REGARDLESS of the
  // scheduler seed: every draw is below(1) == 0, the merge is an
  // identity, and the grace window is zero rounds. Sweeping the seed
  // against the committed lockstep constants proves the scheduler path
  // adds no observable state of its own.
  for (std::uint64_t seed : {1ULL, 7ULL, 0xDEADBEEFULL}) {
    expect_parity("quickstart_delta0",
                  registry_scenario(
                      ScenarioRegistry::get("quickstart")
                          .with_n(64)
                          .with_scheduler(sim::SchedulerKind::kBoundedDelay)
                          .with_delta_max(0)
                          .with_scheduler_seed(seed)),
                  0xc0344b1e666f6c7aULL);
    expect_parity("benor_delta0",
                  registry_scenario(
                      ScenarioRegistry::get("e9_benor_small")
                          .with_scheduler(sim::SchedulerKind::kBoundedDelay)
                          .with_delta_max(0)
                          .with_scheduler_seed(seed)),
                  0x77de7115cdb0ef05ULL);
  }
}

// ------------------------------------------ harness-level scenarios --

void mix_views(RunDigest& d, const LeafViews& lv) {
  for (std::size_t leaf = 0; leaf < lv.leaf_count(); ++leaf)
    for (std::size_t pos = 0; pos < lv.k1(); ++pos)
      for (std::size_t w = 0; w < lv.nwords(); ++w)
        d.mix(lv.at(leaf, pos, w).value());
}

void mix_views(RunDigest& d, const MemberViews& mv, std::size_t members) {
  for (std::size_t pos = 0; pos < members; ++pos)
    for (std::size_t w = 0; w < mv.nwords(); ++w)
      d.mix(mv.at(pos, w).value());
}

std::uint64_t run_share_flow_e8() {
  // E8 configuration: the secret-sharing path in isolation, share-heavy —
  // a batched dealing storm at every leaf, iterated re-dealing to the
  // root, and robust recombination back down, under a corrupt fifth. The
  // lying style forces damaged decodes and reconstruction failures (whose
  // garbage comes from the per-level and per-leaf forked streams); the
  // silent style forces below-threshold groups and insufficient leaf
  // exchanges. Every leaf view word, member view word, and ledger row
  // feeds the digest.
  RunDigest d;
  for (int style = 0; style < 2; ++style) {
    const std::size_t n = 64;
    ProtocolParams params = ProtocolParams::laptop_scale(n);
    params.tree.q = 4;
    params.tree.k1 = 12;
    params.tree.d_up = 12;
    Rng rng(8800 + style);
    Rng tree_rng = rng.fork(1);
    TournamentTree tree(params.tree, tree_rng);
    Network net(n, n / 3);
    ShareFlow flow(params, tree, net, rng.fork(2));
    flow.set_fault_style(style == 0 ? FaultStyle::lying
                                    : FaultStyle::silent);
    for (std::size_t c = 0; c < n / 5; ++c) {
      const auto p = static_cast<ProcId>(rng.below(n));
      if (!net.is_corrupt(p)) net.corrupt(p);
    }
    // One array per processor, dealt in one batch.
    const std::size_t words = 8;
    std::vector<std::vector<Fp>> all_words(n, std::vector<Fp>(words));
    std::vector<ShareFlow::DealJob> jobs(n);
    for (ProcId i = 0; i < n; ++i) {
      Rng arr = rng.fork(0x900 + i);
      for (auto& w : all_words[i]) w = Fp(arr.next());
      jobs[i].owner = i;
      jobs[i].leaf_idx = i;
      jobs[i].words = &all_words[i];
    }
    auto dealt = flow.deal_to_leaf_batch(jobs);
    // March three arrays to the top and expose two word ranges each.
    for (ProcId id : {ProcId{0}, ProcId{5}, ProcId{17}}) {
      ArrayState a;
      a.id = id;
      a.recs = std::move(dealt[id]);
      a.level = 1;
      a.node_idx = id;
      while (a.level < tree.num_levels())
        flow.send_secret_up(a, a.level >= 2 ? 2 : 0,
                            [](std::size_t) { return true; });
      for (std::size_t w0 : {std::size_t{2}, std::size_t{5}}) {
        LeafViews lv = flow.send_down(a, w0, w0 + 3);
        mix_views(d, lv);
        MemberViews mv = flow.send_open(a.level, a.node_idx, lv);
        mix_views(d, mv, tree.node(a.level, a.node_idx).members.size());
      }
    }
    mix_ledger(d, net);
  }
  return d.h;
}

TEST(ParallelParity, ShareFlowSecretSharing) {
  expect_parity("share_flow_e8", run_share_flow_e8,
                0x0c6cd8545a9e8824ULL);
}

/// The full-budget storm setup shared by the sendOpen storm and the
/// batched-vs-serial check: n = 64, the corruption budget spent in full
/// (n/3, vs E8's fifth), four arrays dealt and marched to the root. Two
/// Storms built with the same style are identical.
struct Storm {
  static constexpr std::size_t n = 64;
  static ProtocolParams make_params() {
    ProtocolParams p = ProtocolParams::laptop_scale(n);
    p.tree.q = 4;
    p.tree.k1 = 12;
    p.tree.d_up = 12;
    return p;
  }

  explicit Storm(int style)
      : params(make_params()),
        rng(9700 + style),
        tree_rng(rng.fork(1)),
        tree(params.tree, tree_rng),
        net(n, n / 3),
        flow(params, tree, net, rng.fork(2)) {
    flow.set_fault_style(style == 0 ? FaultStyle::lying
                                    : FaultStyle::silent);
    while (net.corruption_budget_left() > 0) {
      const auto p = static_cast<ProcId>(rng.below(n));
      if (!net.is_corrupt(p)) net.corrupt(p);
    }
    const std::size_t words = 8;
    std::vector<std::vector<Fp>> all_words(n, std::vector<Fp>(words));
    std::vector<ShareFlow::DealJob> jobs(n);
    for (ProcId i = 0; i < n; ++i) {
      Rng arr = rng.fork(0xA00 + i);
      for (auto& w : all_words[i]) w = Fp(arr.next());
      jobs[i].owner = i;
      jobs[i].leaf_idx = i;
      jobs[i].words = &all_words[i];
    }
    auto dealt = flow.deal_to_leaf_batch(jobs);
    for (ProcId id : {ProcId{3}, ProcId{9}, ProcId{21}, ProcId{40}}) {
      ArrayState a;
      a.id = id;
      a.recs = std::move(dealt[id]);
      a.level = 1;
      a.node_idx = id;
      while (a.level < tree.num_levels())
        flow.send_secret_up(a, a.level >= 2 ? 2 : 0,
                            [](std::size_t) { return true; });
      arrays.push_back(std::move(a));
    }
  }

  // The flow holds references to the members above.
  Storm(const Storm&) = delete;
  Storm& operator=(const Storm&) = delete;

  /// Every array exposes two word ranges.
  std::vector<ShareFlow::ExposeJob> expose_jobs() const {
    std::vector<ShareFlow::ExposeJob> batch;
    for (const ArrayState& a : arrays)
      for (std::size_t w0 : {std::size_t{2}, std::size_t{5}})
        batch.push_back({&a, w0, w0 + 3});
    return batch;
  }

  std::size_t open_members(const ShareFlow::ExposeJob& job) const {
    return tree.node(job.a->level, job.a->node_idx).members.size();
  }

  ProtocolParams params;
  Rng rng;
  Rng tree_rng;
  TournamentTree tree;
  Network net;
  ShareFlow flow;
  std::vector<ArrayState> arrays;
};

std::uint64_t run_send_open_storm() {
  // Lying-sender storm for the streaming sendOpen stage: nearly every
  // leaf the opens walk contains corrupt members, so the pooled
  // per-receiver tallies draw from their forked garbage streams on almost
  // every slice — the worst interleaving for the per-receiver stream-fork
  // derivation. Both open paths feed the digest: the batched expose path
  // and the direct send_down + send_open pair. The second pass flips to
  // the silent style at the same budget, pinning the below-threshold
  // branches of the same binned structural pass.
  RunDigest d;
  for (int style = 0; style < 2; ++style) {
    Storm s(style);
    const std::vector<ShareFlow::ExposeJob> batch = s.expose_jobs();
    const std::vector<ShareFlow::Exposure> exposures =
        s.flow.expose_batch(batch);
    for (std::size_t j = 0; j < exposures.size(); ++j) {
      mix_views(d, exposures[j].views);
      mix_views(d, exposures[j].opened, s.open_members(batch[j]));
    }
    const ArrayState& a0 = s.arrays.front();
    LeafViews lv = s.flow.send_down(a0, 3, 6);
    mix_views(d, lv);
    MemberViews mv = s.flow.send_open(a0.level, a0.node_idx, lv);
    mix_views(d, mv, s.open_members({&a0, 3, 6}));
    mix_ledger(d, s.net);
  }
  return d.h;
}

TEST(ParallelParity, SendOpenLyingStorm) {
  expect_parity("send_open_storm", run_send_open_storm,
                0x234732ea2d634e01ULL);
}

/// What the last run_send_open_liar_led saw: opened words that no honest
/// member reported (every hand-set honest value is below 2^32, and a
/// garbage draw lands that low with probability below 2^-28), and leaf
/// tallies that took a settled winner.
std::size_t liar_led_opened_words = 0;
std::uint64_t liar_led_settled_tallies = 0;

std::uint64_t run_send_open_liar_led() {
  // sendOpen on hand-set leaf views where liars lead some leaves, so the
  // position of each receiver's garbage stream reaches the opened words.
  // Per (leaf, word) the honest members report either one value shared
  // by the whole word (the leaf is settled: its receivers skip their L
  // draws) or pairwise-distinct fresh values (every leaf tally is a tie
  // of singletons that goes to the first sender, a garbage draw when that
  // sender lies). A receiver with at most one settled link then opens the
  // first winner among singletons, often a draw taken after some
  // settled leaf's skip. Every node above the leaves opens once; its
  // opened words and the ledger feed the digest.
  RunDigest d;
  Storm s(0);
  Rng pick(0x0BE7);
  constexpr std::size_t kWords = 6;
  std::uint64_t fresh = 1u << 20;
  liar_led_opened_words = 0;
  for (std::size_t level = 2; level <= s.tree.num_levels(); ++level)
    for (std::size_t idx = 0; idx < s.tree.nodes_at(level); ++idx) {
      const TreeNode& node = s.tree.node(level, idx);
      const std::size_t leaves = node.leaf_end - node.leaf_begin;
      LeafViews views(node.leaf_begin, leaves, s.params.tree.k1, kWords);
      for (std::size_t w = 0; w < kWords; ++w)
        for (std::size_t rel = 0; rel < leaves; ++rel) {
          const bool unanimous = pick.below(10) < 3;
          const TreeNode& leaf = s.tree.node(1, node.leaf_begin + rel);
          for (std::size_t pos = 0; pos < leaf.members.size(); ++pos)
            views.set(rel, pos, w, Fp(unanimous ? 100 + w : fresh++));
        }
      const MemberViews mv = s.flow.send_open(level, idx, views);
      mix_views(d, mv, node.members.size());
      for (std::size_t pos = 0; pos < node.members.size(); ++pos)
        for (std::size_t w = 0; w < kWords; ++w)
          liar_led_opened_words += mv.at(pos, w).value() >> 32 != 0 ? 1 : 0;
    }
  liar_led_settled_tallies = s.flow.open_fast_leaf_tallies();
  d.mix(liar_led_settled_tallies);
  mix_ledger(d, s.net);
  return d.h;
}

TEST(ParallelParity, SendOpenLiarLedLeaves) {
  expect_parity("send_open_liar_led", run_send_open_liar_led,
                0xe3d3cc51c8d3ec6aULL);
  // The storm really opens garbage, and settled leaves really skip draws.
  EXPECT_GT(liar_led_opened_words, 0u);
  EXPECT_GT(liar_led_settled_tallies, 0u);
}

TEST(ParallelParity, BatchedExposeEqualsSerialUnderDenseFailures) {
  // expose_batch must equal send_down + send_open job by job, view for
  // view and ledger row for ledger row, even when a large share of the
  // recombinations fail: two identically seeded flows take the lying
  // storm one each way. Failed groups and leaves draw from forked
  // streams keyed by (salt, position), never from a rewound rng_, so the
  // batched path has no serial fallback to hide behind.
  for (std::size_t workers : {1, 2, 8}) {
    SCOPED_TRACE(workers);
    Pool::set_threads(workers);
    Storm batched(0), serial(0);
    const std::vector<ShareFlow::ExposeJob> jobs_b = batched.expose_jobs();
    const std::vector<ShareFlow::ExposeJob> jobs_s = serial.expose_jobs();
    const std::vector<ShareFlow::Exposure> exposures =
        batched.flow.expose_batch(jobs_b);
    ASSERT_EQ(exposures.size(), jobs_s.size());
    for (std::size_t j = 0; j < jobs_s.size(); ++j) {
      const ShareFlow::ExposeJob& job = jobs_s[j];
      const LeafViews lv = serial.flow.send_down(*job.a, job.w0, job.w1);
      const MemberViews mv =
          serial.flow.send_open(job.a->level, job.a->node_idx, lv);
      const LeafViews& blv = exposures[j].views;
      const MemberViews& bmv = exposures[j].opened;
      ASSERT_EQ(blv.leaf_count(), lv.leaf_count());
      for (std::size_t leaf = 0; leaf < lv.leaf_count(); ++leaf)
        for (std::size_t pos = 0; pos < lv.k1(); ++pos)
          for (std::size_t w = 0; w < lv.nwords(); ++w)
            ASSERT_EQ(blv.at(leaf, pos, w).value(), lv.at(leaf, pos, w).value())
                << "job " << j << " leaf " << leaf << " pos " << pos;
      for (std::size_t pos = 0; pos < serial.open_members(job); ++pos)
        for (std::size_t w = 0; w < mv.nwords(); ++w)
          ASSERT_EQ(bmv.at(pos, w).value(), mv.at(pos, w).value())
              << "job " << j << " member " << pos;
    }
    const BitLedger& lb = batched.net.ledger();
    const BitLedger& ls = serial.net.ledger();
    for (ProcId p = 0; p < Storm::n; ++p) {
      EXPECT_EQ(lb.bits_sent(p), ls.bits_sent(p)) << "processor " << p;
      EXPECT_EQ(lb.msgs_sent(p), ls.msgs_sent(p)) << "processor " << p;
      EXPECT_EQ(lb.bits_received(p), ls.bits_received(p))
          << "processor " << p;
    }
    // The failure branch is really exercised, equally on both paths.
    EXPECT_GT(batched.flow.decode_failures(), 0u);
    EXPECT_EQ(batched.flow.decode_failures(), serial.flow.decode_failures());
  }
  Pool::set_threads(0);
}

TEST(ParallelParity, NetworkDeliveryMixedTags) {
  // Delivery-layer parity in isolation: random senders and mixed tags,
  // so buckets take the counting sort rather than the copy or merge
  // shortcuts that protocol rounds mostly take.
  auto scenario = [] {
    const std::size_t n = 512;
    Network net(n, n / 3);
    Rng rng(77);
    RunDigest d;
    for (int round = 0; round < 6; ++round) {
      const std::size_t sends = 4096;
      for (std::size_t i = 0; i < sends; ++i) {
        const auto from = static_cast<ProcId>(rng.below(n));
        const auto to = static_cast<ProcId>(rng.below(n));
        net.send(from, to,
                 make_value_payload(100 + static_cast<std::uint32_t>(
                                              rng.below(5)),
                                    rng.next(), 61));
      }
      if (net.corruption_budget_left() > 0)
        net.corrupt(static_cast<ProcId>(rng.below(n)));
      net.advance_round();
      for (ProcId p = 0; p < n; ++p)
        for (const auto& env : net.inbox(p)) {
          d.mix(env.from);
          d.mix(env.payload.tag);
          d.mix(env.payload.words.empty() ? 0 : env.payload.words[0]);
        }
    }
    mix_ledger(d, net);
    return d.h;
  };
  expect_parity("network_mixed_tags", scenario, 0xc666a61a9a560fcfULL);
}

/// Transport that digests every on_send callback and round barrier, in
/// the order the network makes them.
class RecordingTransport final : public Transport {
 public:
  RunDigest d;

  const char* backend_name() const override { return "recording"; }
  void on_attach(std::size_t n) override { d.mix(n); }
  void on_send(const Envelope& e) override {
    d.mix(e.from);
    d.mix(e.to);
    d.mix(e.round);
    d.mix(e.payload.tag);
    for (std::uint64_t w : e.payload.words) d.mix(w);
  }
  void sync_round(std::uint64_t round,
                  std::vector<std::vector<Envelope>>&) override {
    d.mix(0xBA77u);
    d.mix(round);
  }
  const TransportStats& stats() const override { return stats_; }

 private:
  TransportStats stats_;
};

TEST(ParallelParity, NetworkStagingMulticastMatchesPerMessageSends) {
  // The deferred staging fill in isolation: each round mixes send() and
  // multicast() (duplicate receivers, receiver lists spanning every
  // worker's range, enough traffic to fan the fill out) and corrupts
  // mid-round. Everything observable — the on_send sequence (global send
  // order), inboxes, ledger — must match at any worker count, and match
  // the same traffic sent message by message.
  auto scenario = [](bool per_message) {
    const std::size_t n = 512;
    Network net(n, n / 3);
    RecordingTransport transport;
    net.set_transport(&transport);
    Rng rng(91);
    RunDigest d;
    for (int round = 0; round < 4; ++round) {
      for (int phase = 0; phase < 2; ++phase) {
        for (int i = 0; i < 48; ++i) {
          const auto from = static_cast<ProcId>(rng.below(n));
          std::vector<ProcId> to(40 + rng.below(40));
          for (ProcId& r : to) r = static_cast<ProcId>(rng.below(n));
          to.push_back(to.front());  // duplicate receiver
          const Payload p = make_words_payload(
              200 + static_cast<std::uint32_t>(rng.below(3)),
              {rng.next(), rng.next(), rng.next()});
          if (per_message) {
            for (ProcId r : to) net.send(from, r, p);
          } else {
            net.multicast(from, to, p);
          }
          net.send(static_cast<ProcId>(rng.below(n)),
                   static_cast<ProcId>(rng.below(n)),
                   make_value_payload(201, rng.next(), 61));
        }
        if (net.corruption_budget_left() > 0)
          net.corrupt(static_cast<ProcId>(rng.below(n)));
      }
      net.advance_round();
      for (ProcId p = 0; p < n; ++p)
        for (const auto& env : net.inbox(p)) {
          d.mix(env.from);
          d.mix(env.payload.tag);
          d.mix(env.payload.words[0]);
        }
    }
    mix_ledger(d, net);
    d.mix(transport.d.h);
    return d.h;
  };
  Pool::set_threads(1);
  const std::uint64_t per_message = scenario(true);
  Pool::set_threads(0);
  expect_parity("network_staging_multicast", [&] { return scenario(false); },
                per_message);
}

}  // namespace
}  // namespace ba
