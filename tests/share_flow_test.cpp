// Tests for the iterated-share routing of Section 3.2.3: sendSecretUp,
// sendDown, sendOpen, and the chain encoding behind them.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>

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

TEST(Plurality, LeaderMatchesNaiveCounts) {
  // Small queries take the scan path, large ones the sort path.
  Rng rng(321);
  PluralityCounter counter;
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t k = trial % 2 == 0 ? rng.below(20) : 49 + rng.below(40);
    std::vector<std::uint64_t> values(k);
    for (auto& v : values) v = rng.below(5);
    counter.clear();
    for (auto v : values) counter.add(v);
    const PluralityCounter::Leader top = counter.leader();
    std::map<std::uint64_t, std::size_t> counts;
    for (auto v : values) ++counts[v];
    std::size_t runner_up = 0;
    for (const auto& [v, c] : counts)
      if (v != top.value) runner_up = std::max(runner_up, c);
    EXPECT_EQ(top.value, naive_plurality(values)) << "trial " << trial;
    EXPECT_EQ(top.count, k == 0 ? 0 : counts[top.value]) << "trial " << trial;
    EXPECT_EQ(top.runner_up, runner_up) << "trial " << trial;
  }
}

TEST(Plurality, LeaderOfATieHasNoMargin) {
  PluralityCounter counter;
  for (std::uint64_t v : {7u, 3u, 3u, 7u, 9u}) counter.add(v);
  const PluralityCounter::Leader top = counter.leader();
  EXPECT_EQ(top.value, 7u);
  EXPECT_EQ(top.count, 2u);
  EXPECT_EQ(top.runner_up, 2u);
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

// ------------------------------------------------------- sendOpen tally --

/// sendOpen by definition, with no shortcut: every receiver tallies, per
/// word, each linked leaf's members — a corrupt one draws from
/// Rng(salt).fork(pos) in (word, leaf, member) order — and then the leaf
/// winners. What the settled-leaf path must reproduce.
MemberViews reference_open(const TournamentTree& tree, const Network& net,
                           const TreeNode& node, const LeafViews& views,
                           std::uint64_t salt) {
  MemberViews out(node.members.size(), views.nwords());
  PluralityCounter leaf_tally, node_tally;
  for (std::size_t pos = 0; pos < node.members.size(); ++pos) {
    Rng garbage = Rng(salt).fork(pos);
    for (std::size_t w = 0; w < views.nwords(); ++w) {
      node_tally.clear();
      for (std::uint32_t leaf_abs : node.ell[pos]) {
        const TreeNode& leaf = tree.node(1, leaf_abs);
        leaf_tally.clear();
        for (std::size_t i = 0; i < leaf.members.size(); ++i)
          leaf_tally.add(
              net.is_corrupt(leaf.members[i])
                  ? garbage.next()
                  : views.at(leaf_abs - views.leaf_begin(), i, w).value());
        node_tally.add(leaf_tally.winner());
      }
      out.set(pos, w, Fp(node_tally.winner()));
    }
  }
  return out;
}

/// One sendOpen at node (2, 0) of a fresh lying-style flow over
/// hand-set leaf views. `corrupt(rel, i)` picks the leaf members to
/// corrupt; `fill(rel, h, L, w)` then returns the reports of word w by
/// leaf rel's h honest members, in member order, given its L liars
/// (counted after all corruption: a processor may sit in several
/// leaves).
struct OpenRun {
  Fixture f;
  const TreeNode* node = nullptr;
  std::size_t nwords = 0;
  std::optional<LeafViews> views;
  std::optional<MemberViews> opened, expected;

  template <typename Corrupt, typename Fill>
  OpenRun(std::size_t words, Corrupt corrupt, Fill fill) : nwords(words) {
    node = &f.tree.node(2, 0);
    const std::size_t leaves = node->leaf_end - node->leaf_begin;
    const std::size_t k1 = f.tree.node(1, node->leaf_begin).members.size();
    for (std::size_t rel = 0; rel < leaves; ++rel) {
      const TreeNode& leaf = f.tree.node(1, node->leaf_begin + rel);
      for (std::size_t i = 0; i < leaf.members.size(); ++i)
        if (corrupt(rel, i) && !f.net.is_corrupt(leaf.members[i]) &&
            f.net.corruption_budget_left() > 0)
          f.net.corrupt(leaf.members[i]);
    }
    views.emplace(node->leaf_begin, leaves, k1, nwords);
    for (std::size_t rel = 0; rel < leaves; ++rel) {
      std::vector<std::size_t> honest;
      for (std::size_t i = 0; i < k1; ++i)
        if (!f.net.is_corrupt(leaf_member(rel, i))) honest.push_back(i);
      for (std::size_t w = 0; w < nwords; ++w) {
        const std::vector<std::uint64_t> v =
            fill(rel, honest.size(), k1 - honest.size(), w);
        EXPECT_EQ(v.size(), honest.size());
        for (std::size_t h = 0; h < honest.size(); ++h)
          views->set(rel, honest[h], w, Fp(v[h]));
      }
    }
    // The open is the flow's first draw: its salt.
    const std::uint64_t salt = f.rng.fork(2).next();
    opened.emplace(f.flow.send_open(2, 0, *views));
    expected.emplace(reference_open(f.tree, f.net, *node, *views, salt));
  }

  ProcId leaf_member(std::size_t rel, std::size_t i) const {
    return f.tree.node(1, node->leaf_begin + rel).members[i];
  }
  std::size_t liars(std::size_t rel) const {
    std::size_t count = 0;
    for (ProcId p : f.tree.node(1, node->leaf_begin + rel).members)
      count += f.net.is_corrupt(p) ? 1 : 0;
    return count;
  }
  /// Receiver links to leaf `rel`, over all receivers.
  std::size_t links_to(std::size_t rel) const {
    std::size_t count = 0;
    for (const auto& linked : node->ell)
      count += static_cast<std::size_t>(
          std::count(linked.begin(), linked.end(), node->leaf_begin + rel));
    return count;
  }
  std::uint64_t settled() const { return f.flow.open_fast_leaf_tallies(); }

  void expect_reference() const {
    for (std::size_t pos = 0; pos < node->members.size(); ++pos)
      for (std::size_t w = 0; w < nwords; ++w)
        ASSERT_EQ(opened->at(pos, w).value(), expected->at(pos, w).value())
            << "receiver " << pos << " word " << w;
  }
};

TEST(SendOpenTally, MarginOfExactlyTheLiarCountTakesTheFullTally) {
  // Member 0 of every leaf lies. Each leaf's honest plurality leads its
  // runner-up by exactly L (c1 = c2 + L): the L draws could tie the
  // winner, so not one leaf tally may be settled.
  OpenRun run(
      3, [](std::size_t, std::size_t i) { return i == 0; },
      [](std::size_t rel, std::size_t h, std::size_t liars, std::size_t w) {
        EXPECT_GE(h, liars + 2) << "leaf " << rel;
        const std::size_t c2 = (h - liars) / 2;
        const std::size_t c1 = c2 + liars;
        // Runner-up reports first, then the plurality, then at most one
        // single (c2 >= 1, so it stays below the runner-up).
        std::vector<std::uint64_t> v(c2, 200 + w);
        v.insert(v.end(), c1, 100 + w);
        if (v.size() < h) v.push_back(300 + w);
        return v;
      });
  for (std::size_t rel = 0; rel < run.views->leaf_count(); ++rel)
    ASSERT_GE(run.liars(rel), 1u);
  EXPECT_EQ(run.settled(), 0u);
  run.expect_reference();
}

TEST(SendOpenTally, HonestTieTakesTheFullTally) {
  // No liars; every leaf's honest reports tie two values (c1 = c2), so
  // the first-occurrence tie-break decides and no leaf is settled.
  OpenRun run(
      2, [](std::size_t, std::size_t) { return false; },
      [](std::size_t, std::size_t h, std::size_t, std::size_t w) {
        std::vector<std::uint64_t> v(h);
        for (std::size_t i = 0; i < h; ++i) v[i] = (i % 2 == 0 ? 7 : 5) + w;
        if (h % 2 == 1) v.back() = 9;  // keeps the two counts equal
        return v;
      });
  EXPECT_EQ(run.settled(), 0u);
  run.expect_reference();
  // The tie went to the first report, 7 + w, in every leaf.
  for (std::size_t pos = 0; pos < run.node->members.size(); ++pos)
    for (std::size_t w = 0; w < 2; ++w)
      EXPECT_EQ(run.opened->at(pos, w).value(), 7 + w);
}

TEST(SendOpenTally, LeafWithoutHonestSendersTakesTheFullTally) {
  // Leaf 0 is all liars; every other leaf reports one value. Only links
  // to a unanimous leaf whose honest count beats its liars are settled.
  OpenRun run(
      2, [](std::size_t rel, std::size_t) { return rel == 0; },
      [](std::size_t, std::size_t h, std::size_t, std::size_t w) {
        return std::vector<std::uint64_t>(h, 40 + w);
      });
  ASSERT_EQ(run.liars(0), run.views->k1());
  ASSERT_GT(run.links_to(0), 0u);
  std::uint64_t want = 0;
  for (std::size_t rel = 0; rel < run.views->leaf_count(); ++rel)
    if (run.views->k1() > 2 * run.liars(rel))
      want += run.links_to(rel) * run.nwords;
  EXPECT_GT(want, 0u);
  EXPECT_EQ(run.settled(), want);
  run.expect_reference();
}

TEST(SendOpenTally, SettledLeafKeepsTheGarbageStreamPosition) {
  // Member 0 of every leaf lies. Word 0 is unanimous among the honest
  // members, so every leaf is settled and its receivers skip their L
  // draws. In word 1 the honest reports are pairwise distinct: each leaf
  // tally is a tie of singletons that goes to the liar (member 0, first),
  // so every opened word 1 is a garbage draw — taken at the position the
  // full tally of word 0 would have left the stream in.
  OpenRun run(
      2, [](std::size_t, std::size_t i) { return i == 0; },
      [](std::size_t rel, std::size_t h, std::size_t, std::size_t w) {
        std::vector<std::uint64_t> v(h, 60);
        if (w == 1)
          for (std::size_t i = 0; i < h; ++i) v[i] = 1000 + 100 * rel + i;
        return v;
      });
  std::uint64_t links = 0;
  for (std::size_t rel = 0; rel < run.views->leaf_count(); ++rel) {
    ASSERT_GE(run.views->k1() - run.liars(rel), run.liars(rel) + 1);
    links += run.links_to(rel);
  }
  EXPECT_EQ(run.settled(), links);  // all of word 0, none of word 1
  run.expect_reference();
  // Word 1 is a garbage draw, above every honest report (a uniform field
  // element lands this low with probability below 2^-40).
  const std::uint64_t honest_max =
      1000 + 100 * run.views->leaf_count() + run.views->k1();
  for (std::size_t pos = 0; pos < run.node->members.size(); ++pos) {
    EXPECT_EQ(run.opened->at(pos, 0).value(), 60u);
    EXPECT_GT(run.opened->at(pos, 1).value(), honest_max);
  }
}

TEST(SendOpenTally, MatchesTheFullTallyOnRandomLeaves) {
  // Random liars and reports from a three-value alphabet, so settled,
  // tied and liar-swayed leaves all occur.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(seed);
    Rng pick(seed);
    OpenRun run(
        4, [&](std::size_t, std::size_t) { return pick.below(5) == 0; },
        [&](std::size_t, std::size_t h, std::size_t, std::size_t) {
          std::vector<std::uint64_t> v(h);
          for (auto& x : v) x = pick.below(3);
          return v;
        });
    run.expect_reference();
  }
}

TEST(ShareFlow, ExposureRoundsFormula) {
  EXPECT_EQ(ShareFlow::exposure_rounds(2), 3u);
  EXPECT_EQ(ShareFlow::exposure_rounds(5), 6u);
}

}  // namespace
}  // namespace ba
