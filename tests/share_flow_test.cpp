// Tests for the iterated-share routing of Section 3.2.3: sendSecretUp,
// sendDown, sendOpen, and the chain encoding behind them.
#include <gtest/gtest.h>

#include "common/plurality.h"
#include "core/share_flow.h"

namespace ba {
namespace {

/// The seed's O(k^2) recount, kept as the semantic reference for the
/// sort-based counter (including the first-occurrence tie-break).
std::uint64_t naive_plurality(const std::vector<std::uint64_t>& values) {
  std::uint64_t best = values.empty() ? 0 : values[0];
  std::size_t best_count = 0;
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::size_t count = 0;
    for (const auto& v : values)
      if (v == values[i]) ++count;
    if (count > best_count) {
      best_count = count;
      best = values[i];
    }
  }
  return best;
}

TEST(Plurality, SortBasedMatchesNaiveRecount) {
  Rng rng(123);
  PluralityCounter counter;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t k = rng.below(20);
    std::vector<std::uint64_t> values(k);
    // Small value range to force collisions and count ties.
    for (auto& v : values) v = rng.below(4);
    counter.clear();
    for (auto v : values) counter.add(v);
    EXPECT_EQ(counter.winner(), naive_plurality(values)) << "trial " << trial;
  }
}

TEST(Plurality, EmptyTallyIsZero) {
  PluralityCounter counter;
  EXPECT_EQ(counter.winner(), 0u);
}

TEST(Plurality, TieGoesToFirstOccurrence) {
  PluralityCounter counter;
  for (std::uint64_t v : {7u, 3u, 3u, 7u, 9u}) counter.add(v);
  EXPECT_EQ(counter.winner(), 7u);  // 7 and 3 both count 2; 7 came first
}

ProtocolParams tiny_params(std::size_t n = 64, std::size_t q = 4) {
  ProtocolParams p = ProtocolParams::laptop_scale(n);
  p.tree.n = n;
  p.tree.q = q;
  return p;
}

struct Fixture {
  ProtocolParams params;
  Rng rng;
  TournamentTree tree;
  Network net;
  ShareFlow flow;

  explicit Fixture(std::size_t n = 64, std::size_t q = 4,
                   std::uint64_t seed = 1)
      : params(tiny_params(n, q)),
        rng(seed),
        tree([&] {
          Rng tr = rng.fork(1);
          return TournamentTree(params.tree, tr);
        }()),
        net(n, n / 3),
        flow(params, tree, net, rng.fork(2)) {}

  ArrayState make_array(ProcId owner, std::size_t words,
                        std::uint64_t seed = 99) {
    ArrayState a;
    a.id = owner;
    Rng r(seed);
    a.truth.resize(words);
    for (auto& w : a.truth) w = r.next() & Fp::kP;
    std::vector<Fp> fw(words);
    for (std::size_t i = 0; i < words; ++i) fw[i] = Fp(a.truth[i]);
    a.recs = flow.deal_to_leaf(owner, owner, fw);
    a.level = 1;
    a.node_idx = owner;
    return a;
  }
};

// --------------------------------------------------------------- chains --

TEST(Chain, RootAndElements) {
  Chain c = chain_root(5);
  EXPECT_EQ(chain_elem(c, 0), 5);
  c = chain_extend(c, 1, 3);
  EXPECT_EQ(chain_elem(c, 1), 3);
  c = chain_extend(c, 2, 9);
  EXPECT_EQ(chain_elem(c, 2), 9);
  EXPECT_EQ(chain_elem(c, 0), 5);
}

TEST(Chain, ParentDropsLast) {
  Chain c = chain_extend(chain_extend(chain_root(7), 1, 2), 2, 4);
  Chain p = chain_parent(c, 3);
  EXPECT_EQ(p, chain_extend(chain_root(7), 1, 2));
  EXPECT_EQ(chain_parent(p, 2), chain_root(7));
}

TEST(Chain, RejectsBadValues) {
  EXPECT_THROW(chain_root(300), std::logic_error);
  EXPECT_THROW(chain_extend(chain_root(1), 1, 0), std::logic_error);
  EXPECT_THROW(chain_extend(chain_root(1), 1, 16), std::logic_error);
  EXPECT_THROW(chain_parent(chain_root(1), 1), std::logic_error);
}

// ------------------------------------------------------------ round trip --

TEST(ShareFlow, DealProducesOneRecPerLeafMember) {
  Fixture f;
  auto a = f.make_array(0, 3);
  EXPECT_EQ(a.recs.size(), f.tree.node(1, 0).members.size());
  for (const auto& rec : a.recs) EXPECT_EQ(rec.ys.size(), 3u);
}

TEST(ShareFlow, SendUpMultipliesShares) {
  Fixture f;
  auto a = f.make_array(0, 3);
  const std::size_t before = a.recs.size();
  f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  EXPECT_EQ(a.level, 2u);
  EXPECT_EQ(a.recs.size(), before * f.tree.uplinks(1).degree());
}

TEST(ShareFlow, DownOpenRecoversSecretNoFaults) {
  Fixture f;
  auto a = f.make_array(5, 4);
  f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  LeafViews lv = f.flow.send_down(a, 1, 3);  // words 1..2
  // Every leaf member of the subtree reconstructs the truth.
  const TreeNode& top = f.tree.node(2, a.node_idx);
  for (std::size_t rel = 0; rel < lv.leaf_count(); ++rel) {
    for (std::size_t pos = 0; pos < lv.k1(); ++pos) {
      EXPECT_EQ(lv.at(rel, pos, 0).value(), a.truth[1]);
      EXPECT_EQ(lv.at(rel, pos, 1).value(), a.truth[2]);
    }
  }
  MemberViews mv = f.flow.send_open(2, a.node_idx, lv);
  for (std::size_t pos = 0; pos < top.members.size(); ++pos) {
    EXPECT_EQ(mv.at(pos, 0).value(), a.truth[1]);
    EXPECT_EQ(mv.at(pos, 1).value(), a.truth[2]);
  }
}

TEST(ShareFlow, MultiLevelRoundTrip) {
  Fixture f;
  auto a = f.make_array(3, 5);
  f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  f.flow.send_secret_up(a, 1, [](std::size_t) { return true; });  // to lvl 3
  EXPECT_EQ(a.level, 3u);
  EXPECT_EQ(a.word_offset, 1u);
  LeafViews lv = f.flow.send_down(a, 2, 5);
  MemberViews mv = f.flow.send_open(3, a.node_idx, lv);
  for (std::size_t pos = 0; pos < f.tree.node(3, a.node_idx).members.size();
       ++pos) {
    for (std::size_t w = 0; w < 3; ++w)
      EXPECT_EQ(mv.at(pos, w).value(), a.truth[2 + w]);
  }
}

TEST(ShareFlow, RoundTripToRootLevel) {
  Fixture f;
  auto a = f.make_array(7, 2);
  for (std::size_t lvl = 1; lvl + 1 <= f.tree.num_levels(); ++lvl)
    f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  EXPECT_EQ(a.level, f.tree.num_levels());
  LeafViews lv = f.flow.send_down(a, 0, 2);
  MemberViews mv = f.flow.send_open(f.tree.num_levels(), 0, lv);
  for (std::size_t pos = 0; pos < f.params.tree.n; ++pos) {
    EXPECT_EQ(mv.at(pos, 0).value(), a.truth[0]);
    EXPECT_EQ(mv.at(pos, 1).value(), a.truth[1]);
  }
}

TEST(ShareFlow, OffsetSlicingDropsConsumedWords) {
  Fixture f;
  auto a = f.make_array(2, 6);
  f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  f.flow.send_secret_up(a, 4, [](std::size_t) { return true; });
  EXPECT_EQ(a.word_offset, 4u);
  for (const auto& rec : a.recs) EXPECT_EQ(rec.ys.size(), 2u);
  LeafViews lv = f.flow.send_down(a, 4, 6);
  MemberViews mv = f.flow.send_open(3, a.node_idx, lv);
  EXPECT_EQ(mv.at(0, 0).value(), a.truth[4]);
  EXPECT_EQ(mv.at(0, 1).value(), a.truth[5]);
  // Words before the offset are gone.
  EXPECT_THROW(f.flow.send_down(a, 3, 4), std::logic_error);
}

// ----------------------------------------------------------- corruption --

TEST(ShareFlow, SurvivesCorruptLeafMinority) {
  Fixture f;
  // Corrupt 2 members of leaf 0 (k1 = 8, t1 = 2, BW corrects 2).
  const auto& leaf = f.tree.node(1, 0);
  f.net.corrupt(leaf.members[0]);
  f.net.corrupt(leaf.members[1]);
  auto a = f.make_array(0, 3);
  f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  LeafViews lv = f.flow.send_down(a, 0, 1);
  MemberViews mv = f.flow.send_open(2, a.node_idx, lv);
  std::size_t correct = 0;
  const auto& members = f.tree.node(2, a.node_idx).members;
  for (std::size_t pos = 0; pos < members.size(); ++pos)
    correct += mv.at(pos, 0).value() == a.truth[0] ? 1 : 0;
  EXPECT_GE(correct, members.size() * 3 / 4);
}

TEST(ShareFlow, SurvivesScatteredCorruption) {
  Fixture f(64, 4, 7);
  // Corrupt a random ~15% of all processors, sparing the array owner
  // (a corrupt dealer legitimately poisons its own array).
  Rng pick(77);
  std::size_t corrupted = 0;
  while (corrupted < 10) {
    const auto p = static_cast<ProcId>(pick.below(64));
    if (p == 9 || f.net.is_corrupt(p)) continue;
    f.net.corrupt(p);
    ++corrupted;
  }
  auto a = f.make_array(9, 4);
  f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  LeafViews lv = f.flow.send_down(a, 0, 2);
  MemberViews mv = f.flow.send_open(3, a.node_idx, lv);
  const auto& members = f.tree.node(3, a.node_idx).members;
  std::size_t correct = 0;
  for (std::size_t pos = 0; pos < members.size(); ++pos) {
    if (f.net.is_corrupt(members[pos])) continue;
    correct += mv.at(pos, 0).value() == a.truth[0] ? 1 : 0;
  }
  std::size_t good_members = 0;
  for (auto m : members) good_members += f.net.is_corrupt(m) ? 0 : 1;
  EXPECT_GE(static_cast<double>(correct) / good_members, 0.85);
}

TEST(ShareFlow, SilentFaultsAreWeakerThanLies) {
  Fixture f(64, 4, 8);
  f.flow.set_fault_style(FaultStyle::silent);
  const auto& leaf = f.tree.node(1, 0);
  f.net.corrupt(leaf.members[0]);
  f.net.corrupt(leaf.members[1]);
  auto a = f.make_array(0, 2);
  f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  LeafViews lv = f.flow.send_down(a, 0, 1);
  MemberViews mv = f.flow.send_open(2, a.node_idx, lv);
  const auto& members = f.tree.node(2, a.node_idx).members;
  for (std::size_t pos = 0; pos < members.size(); ++pos)
    EXPECT_EQ(mv.at(pos, 0).value(), a.truth[0]);
}

TEST(ShareFlow, CorruptOwnerDealsGarbage) {
  Fixture f;
  f.net.corrupt(4);
  auto a = f.make_array(4, 2);
  f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  LeafViews lv = f.flow.send_down(a, 0, 1);
  MemberViews mv = f.flow.send_open(2, a.node_idx, lv);
  // A garbage dealing reconstructs to *something* consistent per leaf but
  // almost surely not the "truth" the owner pretended to commit.
  std::size_t matches = 0;
  const auto& members = f.tree.node(2, a.node_idx).members;
  for (std::size_t pos = 0; pos < members.size(); ++pos)
    matches += mv.at(pos, 0).value() == a.truth[0] ? 1 : 0;
  EXPECT_EQ(matches, 0u);
}

TEST(ShareFlow, NonForwardingHoldersShrinkButDontBreak) {
  // A few good holders refuse to forward (divergent election views) —
  // reconstruction still succeeds from the rest.
  Fixture f;
  auto a = f.make_array(1, 3);
  f.flow.send_secret_up(a, 0, [](std::size_t pos) { return pos != 0; });
  LeafViews lv = f.flow.send_down(a, 0, 1);
  MemberViews mv = f.flow.send_open(2, a.node_idx, lv);
  const auto& members = f.tree.node(2, a.node_idx).members;
  std::size_t correct = 0;
  for (std::size_t pos = 0; pos < members.size(); ++pos)
    correct += mv.at(pos, 0).value() == a.truth[0] ? 1 : 0;
  EXPECT_EQ(correct, members.size());
}

// -------------------------------------------------------- exposure plans --

TEST(ShareFlow, ExposurePlansAreReusedUntilAKeyMoves) {
  Fixture f(64, 4, 3);
  auto a = f.make_array(5, 4);
  auto b = f.make_array(6, 4);
  auto c = f.make_array(40, 4);
  for (ArrayState* x : {&a, &b, &c})
    f.flow.send_secret_up(*x, 0, [](std::size_t) { return true; });
  ASSERT_EQ(a.node_idx, b.node_idx);
  ASSERT_NE(a.node_idx, c.node_idx);
  EXPECT_EQ(f.flow.plans_built(), 0u);
  f.flow.send_down(a, 0, 1);
  EXPECT_EQ(f.flow.plans_built(), 1u);
  EXPECT_EQ(f.flow.plan_reuses(), 0u);
  // Another word range and the open ride the same plan.
  const auto exps = f.flow.expose_batch({{&a, 1, 3}});
  EXPECT_EQ(f.flow.plans_built(), 1u);
  EXPECT_EQ(f.flow.plan_reuses(), 1u);
  for (std::size_t pos = 0; pos < exps[0].opened.nwords(); ++pos)
    EXPECT_EQ(exps[0].opened.at(0, pos).value(), a.truth[1 + pos]);
  // Uplink positions depend on the holder position alone, so a sibling
  // array fully forwarded into the same node has the same layout; an
  // array at another node does not.
  f.flow.send_down(b, 0, 1);
  EXPECT_EQ(f.flow.plans_built(), 1u);
  EXPECT_EQ(f.flow.plan_reuses(), 2u);
  f.flow.send_down(c, 0, 1);
  EXPECT_EQ(f.flow.plans_built(), 2u);
  // A corruption moves the masks: the cached plans are dropped.
  f.net.corrupt(f.tree.node(2, a.node_idx).members[0]);
  f.flow.send_down(a, 0, 1);
  EXPECT_EQ(f.flow.plans_built(), 3u);
  f.flow.send_down(a, 0, 1);
  EXPECT_EQ(f.flow.plan_reuses(), 3u);
  // So does a new fault style.
  f.flow.set_fault_style(FaultStyle::silent);
  f.flow.send_down(a, 0, 1);
  EXPECT_EQ(f.flow.plans_built(), 4u);
}

TEST(ShareFlow, CachedPlanEqualsFreshPlan) {
  // Two identical flows expose the same array twice; one drops its plans
  // in between (set_fault_style to the same style), so its second
  // exposure runs on a freshly built plan. Views, opened words and
  // ledgers must agree exactly — also when a holder of the array is
  // corrupted between the two exposures, where the other flow must
  // notice the corruption by itself and rebuild. A silent holder sends
  // nothing, so a stale plan would show in the ledger.
  auto run = [](FaultStyle style, bool drop, bool corrupt_between) {
    Fixture f(64, 4, 11);
    f.flow.set_fault_style(style);
    for (ProcId p : {ProcId{3}, ProcId{17}, ProcId{30}, ProcId{41}})
      f.net.corrupt(p);
    auto a = f.make_array(9, 4);
    f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
    f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
    const auto& top = f.tree.node(3, a.node_idx).members;
    f.flow.expose_batch({{&a, 0, 2}});
    if (corrupt_between)
      for (ProcId p : top)
        if (!f.net.is_corrupt(p)) {
          f.net.corrupt(p);
          break;
        }
    if (drop) f.flow.set_fault_style(style);
    const auto exps = f.flow.expose_batch({{&a, 1, 4}});
    std::vector<std::uint64_t> seen;
    const LeafViews& lv = exps[0].views;
    for (std::size_t leaf = 0; leaf < lv.leaf_count(); ++leaf)
      for (std::size_t pos = 0; pos < lv.k1(); ++pos)
        for (std::size_t w = 0; w < lv.nwords(); ++w)
          seen.push_back(lv.at(leaf, pos, w).value());
    for (std::size_t pos = 0; pos < top.size(); ++pos)
      for (std::size_t w = 0; w < exps[0].opened.nwords(); ++w)
        seen.push_back(exps[0].opened.at(pos, w).value());
    for (ProcId p = 0; p < 64; ++p) {
      seen.push_back(f.net.ledger().bits_sent(p));
      seen.push_back(f.net.ledger().msgs_sent(p));
      seen.push_back(f.net.ledger().bits_received(p));
    }
    EXPECT_EQ(f.flow.plans_built(), drop || corrupt_between ? 2u : 1u);
    return seen;
  };
  for (FaultStyle style : {FaultStyle::lying, FaultStyle::silent}) {
    EXPECT_EQ(run(style, false, false), run(style, true, false));
    EXPECT_EQ(run(style, false, true), run(style, true, true));
  }
  EXPECT_NE(run(FaultStyle::silent, false, false),
            run(FaultStyle::silent, false, true));
}

TEST(ShareFlow, ChargesBitsToLedger) {
  Fixture f;
  auto a = f.make_array(0, 2);
  const auto before = f.net.ledger().total_bits_sent(
      std::vector<bool>(64, false), false);
  EXPECT_GT(before, 0u);  // dealing already charged
  f.flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  const auto after = f.net.ledger().total_bits_sent(
      std::vector<bool>(64, false), false);
  EXPECT_GT(after, before);
}

TEST(ShareFlow, ExposureRoundsFormula) {
  EXPECT_EQ(ShareFlow::exposure_rounds(2), 3u);
  EXPECT_EQ(ShareFlow::exposure_rounds(5), 6u);
}

}  // namespace
}  // namespace ba
