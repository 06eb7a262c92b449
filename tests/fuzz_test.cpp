// Randomized property sweeps ("fuzz" at simulation scale): malformed and
// adversarial inputs must never crash, and structural invariants must
// survive arbitrary-ish traffic.
#include <gtest/gtest.h>

#include "adversary/strategies.h"
#include "aeba/aeba_with_coins.h"
#include "core/share_flow.h"
#include "crypto/berlekamp_welch.h"
#include "crypto/gao.h"
#include "crypto/scheme_cache.h"
#include "election/feige.h"

namespace ba {
namespace {

TEST(NetworkFuzz, RandomTrafficKeepsInvariants) {
  Rng rng(1);
  Network net(32, 10);
  for (int round = 0; round < 50; ++round) {
    const int sends = static_cast<int>(rng.below(64));
    for (int i = 0; i < sends; ++i) {
      const auto from = static_cast<ProcId>(rng.below(32));
      const auto to = static_cast<ProcId>(rng.below(32));
      Payload p;
      p.tag = static_cast<std::uint32_t>(rng.next());
      const auto words = rng.below(5);
      for (std::uint64_t w = 0; w < words; ++w) p.words.push_back(rng.next());
      p.content_bits = rng.below(4096);
      net.send(from, to, std::move(p));
    }
    if (rng.bernoulli(0.1) && net.corruption_budget_left() > 0)
      net.corrupt(static_cast<ProcId>(rng.below(32)));
    net.advance_round();
    for (ProcId p = 0; p < 32; ++p) {
      const auto& box = net.inbox(p);
      // Delivery order is sender order, whatever the tags.
      for (std::size_t i = 1; i < box.size(); ++i)
        EXPECT_LE(box[i - 1].from, box[i].from);
    }
  }
  EXPECT_LE(net.corrupt_count(), 10u);
  EXPECT_EQ(net.round(), 50u);
}

TEST(AebaFuzz, MalformedVotesNeverCrashOrCorruptGoodState) {
  const std::size_t n = 24;
  Network net(n, 8);
  Rng gr(2);
  auto graph = RegularGraph::random(n, 4, gr);
  std::vector<ProcId> members(n);
  for (std::size_t i = 0; i < n; ++i) members[i] = static_cast<ProcId>(i);
  AebaMachine machine(99, members, &graph, AebaParams{}, 5);
  for (std::size_t p = 0; p < n; ++p)
    for (std::size_t i = 0; i < 5; ++i) machine.set_input(p, i, true);

  Rng fuzz(3);
  SharedRandomCoins coins(Rng(4));
  for (int round = 0; round < 10; ++round) {
    machine.send_votes(net);
    // Inject garbage: truncated payloads, wrong contexts, huge word
    // vectors, duplicate floods from real members.
    for (int i = 0; i < 40; ++i) {
      Payload p;
      p.tag = fuzz.bernoulli(0.7) ? kTagAebaVote
                                  : static_cast<std::uint32_t>(fuzz.next());
      const auto words = fuzz.below(4);
      for (std::uint64_t w = 0; w < words; ++w)
        p.words.push_back(fuzz.bernoulli(0.5) ? 99 : fuzz.next());
      p.content_bits = 5;
      net.send(static_cast<ProcId>(fuzz.below(n)),
               static_cast<ProcId>(fuzz.below(n)), std::move(p));
    }
    net.advance_round();
    machine.tally_votes(net, coins, round);
  }
  // Unanimous honest inputs with zero corrupted members: garbage traffic
  // from *member* senders is only counted if correctly framed, and those
  // frames still carry member-grade votes — agreement must hold.
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_TRUE(machine.good_majority(i, net.corrupt_mask()));
}

TEST(ElectionFuzz, WinnersAlwaysWellFormed) {
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t r = 2 + rng.below(64);
    const std::size_t w = 1 + rng.below(r);
    ElectionParams ep{r, w};
    std::vector<std::uint32_t> bins(r);
    for (auto& b : bins) b = static_cast<std::uint32_t>(rng.next());
    auto winners = lightest_bin_winners(bins, ep);
    EXPECT_EQ(winners.size(), w);
    std::vector<bool> seen(r, false);
    for (auto c : winners) {
      ASSERT_LT(c, r);
      EXPECT_FALSE(seen[c]);
      seen[c] = true;
    }
  }
}

TEST(BerlekampWelchFuzz, AlwaysDecodesWithinBudget) {
  Rng rng(6);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t d = 6 + rng.below(12);      // 6..17 shares
    const std::size_t t = 1 + rng.below(d / 3);   // privacy threshold
    const std::size_t e = (d - t - 1) / 2;
    ShamirScheme scheme(d, t);
    std::vector<Fp> secret{Fp(rng.next()), Fp(rng.next())};
    auto shares = scheme.deal(secret, rng);
    const std::size_t errors = rng.below(e + 1);
    for (auto b : rng.sample_without_replacement(d, errors))
      for (auto& y : shares[b].ys) y = Fp(rng.next());
    auto rec = robust_reconstruct(shares, t);
    ASSERT_TRUE(rec.has_value())
        << "d=" << d << " t=" << t << " errors=" << errors;
    EXPECT_EQ(*rec, secret);
  }
}

TEST(BerlekampWelchFuzz, DifferentialAgainstGaoAtScale) {
  // Gao (extended Euclid) and Berlekamp–Welch (a linear solve for the
  // error locator) are algorithmically unrelated decoders of the same
  // code, so any disagreement — value or accept/reject — flags a bug in
  // one of them. >= 10k words across random point sets, error
  // weights from clean through beyond-budget, plus zero codewords.
  Rng rng(41);
  std::size_t cases = 0, damaged = 0, rejected = 0, zero_words = 0;
  while (cases < 10000) {
    const std::size_t degree = rng.below(7);
    const std::size_t budget = rng.below(5);
    const std::size_t m = degree + 1 + 2 * budget + rng.below(4);
    // Random distinct points (distinctness via distinct multipliers of a
    // fixed offset pattern).
    std::vector<Fp> xs(m);
    const std::uint64_t base = 1 + rng.below(1u << 20);
    for (std::size_t i = 0; i < m; ++i)
      xs[i] = Fp(base + i * (1 + rng.below(5)) * 65537ULL);
    bool distinct = true;
    for (std::size_t i = 0; i < m && distinct; ++i)
      for (std::size_t j = i + 1; j < m; ++j)
        if (xs[i] == xs[j]) {
          distinct = false;
          break;
        }
    if (!distinct) continue;
    const std::size_t max_errors = (m - degree - 1) / 2;
    GaoContext gao(xs);
    const std::size_t words = 16;
    std::vector<std::vector<Fp>> batch(words);
    for (std::size_t w = 0; w < words; ++w) {
      std::vector<Fp> coeffs(degree + 1);
      const bool zero_word = rng.bernoulli(0.05);
      for (auto& c : coeffs) c = zero_word ? Fp(0) : Fp(rng.next());
      zero_words += zero_word ? 1 : 0;
      auto& ys = batch[w];
      ys.resize(m);
      for (std::size_t i = 0; i < m; ++i) ys[i] = poly_eval(coeffs, xs[i]);
      // Error weight sweeps past the budget so rejects are exercised too.
      const std::size_t errors = rng.below(max_errors + 2);
      for (auto b : rng.sample_without_replacement(m, std::min(errors, m)))
        ys[b] = Fp(rng.next());
      damaged += errors > 0 ? 1 : 0;
    }
    for (std::size_t w = 0; w < words; ++w) {
      const auto via_bw = berlekamp_welch(xs, batch[w], degree, max_errors);
      auto via_gao = gao.decode(batch[w], degree, max_errors);
      ASSERT_EQ(via_bw.has_value(), via_gao.has_value())
          << "case " << cases << " m=" << m << " degree=" << degree;
      if (via_gao.has_value()) {
        for (std::size_t c = 0; c <= degree; ++c) {
          const Fp g = c < via_gao->size() ? (*via_gao)[c] : Fp(0);
          const Fp b = c < via_bw->size() ? (*via_bw)[c] : Fp(0);
          ASSERT_EQ(g.value(), b.value())
              << "case " << cases << " coeff " << c;
        }
      } else {
        ++rejected;
      }
      ++cases;
    }
  }
  // The sweep must actually have exercised the interesting regions.
  EXPECT_GE(cases, 10000u);
  EXPECT_GT(damaged, 100u);
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(zero_words, 50u);
}

TEST(RobustDecoderFuzz, InformationSetsAgreeWithGaoAndBerlekampWelch) {
  // RobustDecoder accepts a word from the first disjoint (t+1)-block
  // whose interpolant is within the error budget and calls Gao only when
  // every block fails. Within the unique-decoding radius that must give
  // exactly Gao's and Berlekamp–Welch's answer: the same accept/reject,
  // the same secret, and the same damaged-word count (a word misses the
  // zero-error check exactly when it is not a codeword). Point sets: the
  // protocol shape, a ragged last block, tiny and non-consecutive sets.
  struct Shape {
    std::size_t m, t;
    bool scattered;  // random distinct xs instead of 1..m
  };
  const Shape shapes[] = {{12, 3, false}, {9, 2, false}, {13, 3, false},
                          {5, 1, false},  {12, 3, true},  {10, 2, true}};
  Rng rng(43);
  std::size_t cases = 0, rejected = 0, gao_reached = 0, accepted_early = 0;
  for (const Shape& shape : shapes) {
    const std::size_t m = shape.m, t = shape.t, k = t + 1;
    const std::size_t blocks = m / k;
    std::vector<Fp> xs(m);
    for (std::size_t i = 0; i < m; ++i) xs[i] = Fp(i + 1);
    if (shape.scattered) {
      std::vector<std::uint64_t> seen;
      for (std::size_t i = 0; i < m;) {
        const std::uint64_t x = rng.next() % Fp::kP;
        bool fresh = true;
        for (auto y : seen) fresh = fresh && y != x;
        if (!fresh) continue;
        seen.push_back(x);
        xs[i++] = Fp(x);
      }
    }
    const RobustDecoder dec(xs, t);
    const GaoContext gao(xs);
    const std::size_t e = dec.max_errors();
    RobustDecoder::Scratch scratch;
    GaoContext::Scratch gs;
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<Fp> coeffs(t + 1);
      const bool zero_word = trial % 17 == 0;
      for (auto& c : coeffs) c = zero_word ? Fp(0) : Fp(rng.next());
      std::vector<Fp> ys(m);
      for (std::size_t i = 0; i < m; ++i) ys[i] = poly_eval(coeffs, xs[i]);
      std::vector<std::uint64_t> bad;
      switch (trial % 4) {
        case 0:  // 0 .. e + 2 errors anywhere
        case 1:
          bad = rng.sample_without_replacement(m, rng.below(e + 3));
          break;
        case 2:  // one error in every block
          for (std::size_t j = 0; j < blocks; ++j)
            bad.push_back(j * k + rng.below(k));
          break;
        default:  // errors only in block 0's check positions
          for (auto b : rng.sample_without_replacement(
                   m - k, std::min(m - k, 1 + rng.below(e + 2))))
            bad.push_back(k + b);
          break;
      }
      for (auto b : bad) ys[b] += Fp(1 + rng.below(Fp::kP - 1));

      const bool codeword = berlekamp_welch(xs, ys, t, 0).has_value();
      const auto via_bw = berlekamp_welch(xs, ys, t, e);
      const bool gao_ok = gao.decode(ys.data(), t, e, gs);
      ASSERT_EQ(gao_ok, via_bw.has_value()) << "m=" << m << " t=" << t;

      std::vector<FpSpan> spans(m);
      for (std::size_t i = 0; i < m; ++i) spans[i] = FpSpan{&ys[i], 1};
      const std::uint64_t damaged0 = scratch.damaged_words;
      const std::uint64_t gao0 = scratch.gao_words;
      Fp out;
      const bool ok = dec.reconstruct_into(spans.data(), m, 1, &out, scratch);
      ASSERT_EQ(ok, gao_ok) << "m=" << m << " t=" << t << " trial " << trial
                            << " errors " << bad.size();
      EXPECT_EQ(scratch.damaged_words - damaged0, codeword ? 0u : 1u);
      if (ok) {
        EXPECT_EQ(out, gs.msg[0]) << "m=" << m << " trial " << trial;
        EXPECT_EQ(out, (*via_bw)[0]) << "m=" << m << " trial " << trial;
      } else {
        ++rejected;
      }
      // Fewer errors than blocks (within the budget) leave a clean block:
      // no Gao call. One error in every block within the budget defeats
      // every block: Gao decodes it.
      const std::uint64_t reached = scratch.gao_words - gao0;
      gao_reached += reached;
      if (!codeword && reached == 0) ++accepted_early;
      if (bad.size() < blocks && bad.size() <= e) {
        EXPECT_EQ(reached, 0u);
      }
      if (trial % 4 == 2 && blocks <= e) {
        EXPECT_EQ(reached, 1u);
      }
      ++cases;
    }
  }
  EXPECT_GE(cases, 10000u);
  EXPECT_GT(rejected, 100u);
  EXPECT_GT(gao_reached, 100u);
  EXPECT_GT(accepted_early, 100u);
}

TEST(ShareFlowFuzz, RandomParameterGridRoundTrips) {
  Rng meta(7);
  for (int trial = 0; trial < 6; ++trial) {
    ProtocolParams params = ProtocolParams::laptop_scale(64);
    params.tree.q = 4;
    params.tree.k1 = 8 + 4 * meta.below(2);   // 8 or 12
    params.tree.d_up = 9 + 3 * meta.below(3); // 9, 12, 15
    Rng rng(100 + trial);
    Rng tr = rng.fork(1);
    TournamentTree tree(params.tree, tr);
    Network net(64, 21);
    ShareFlow flow(params, tree, net, rng.fork(2));
    // Light random corruption (5%), owner spared.
    for (int c = 0; c < 3; ++c) {
      auto p = static_cast<ProcId>(rng.below(64));
      if (p != 3 && !net.is_corrupt(p)) net.corrupt(p);
    }
    ArrayState a;
    a.id = 3;
    a.truth.assign(6, 0);
    for (auto& w : a.truth) w = rng.next() & Fp::kP;
    std::vector<Fp> fw(6);
    for (int i = 0; i < 6; ++i) fw[i] = Fp(a.truth[i]);
    a.recs = flow.deal_to_leaf(3, 3, fw);
    a.level = 1;
    a.node_idx = 3;
    flow.send_secret_up(a, 0, [](std::size_t) { return true; });
    flow.send_secret_up(a, 2, [](std::size_t) { return true; });
    LeafViews lv = flow.send_down(a, 2, 6);
    MemberViews mv = flow.send_open(a.level, a.node_idx, lv);
    const auto& members = tree.node(a.level, a.node_idx).members;
    std::size_t correct = 0, good = 0;
    for (std::size_t pos = 0; pos < members.size(); ++pos) {
      if (net.is_corrupt(members[pos])) continue;
      ++good;
      correct += mv.at(pos, 0).value() == a.truth[2] ? 1 : 0;
    }
    EXPECT_GE(static_cast<double>(correct) / static_cast<double>(good), 0.9)
        << "k1=" << params.tree.k1 << " d_up=" << params.tree.d_up;
  }
}

TEST(SamplerFuzz, DegreeAlwaysRespected) {
  Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t r = 2 + rng.below(64);
    const std::size_t s = 2 + rng.below(64);
    const std::size_t d = 1 + rng.below(std::min<std::uint64_t>(s, 16));
    Rng srng(trial);
    Sampler smp(r, s, d, /*distinct=*/true, srng);
    for (std::size_t x = 0; x < r; ++x) {
      EXPECT_EQ(smp.at(x).size(), d);
      for (auto v : smp.at(x)) EXPECT_LT(v, s);
    }
  }
}

}  // namespace
}  // namespace ba
