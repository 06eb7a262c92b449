// E8 — Section 3.1 + Lemma 1: iterated secret sharing. "If a secret is
// shared in this manner up to i iterations, then an adversary which
// possesses t_i shares of each i-share learns no information about the
// secret."
//
// Three tables: (a) statistical hiding — the distribution of any t-subset
// of shares is indistinguishable across different secrets (chi-squared
// buckets over many dealings); (b) reveal correctness through iterated
// recombination; (c) the Berlekamp–Welch extension: decode success vs
// number of corrupted shares (the margin that makes sendDown concrete).
// Tables (b) and (c) are also checks: the program exits 1 if any round
// trip fails, or if any decode within the error budget (<= 4 corrupted
// shares) fails.
#include <cmath>
#include <functional>
#include <iostream>

#include "common/rng.h"
#include "common/table.h"
#include "crypto/berlekamp_welch.h"
#include "crypto/iterated.h"

int main() {
  using namespace ba;
  const std::size_t trials = 8000;
  bool failed = false;

  {
    Table t(
        "E8a / Lemma 1 — hiding: chi-squared distance between share "
        "distributions under secret=0 vs secret=2^60 (16 buckets; "
        "~16 expected for identical uniform distributions)");
    t.header({"n", "t", "iterations", "chi2_statistic"});
    for (auto [n, tt, iters] :
         {std::tuple<std::size_t, std::size_t, int>{8, 2, 1},
          {12, 3, 1},
          {8, 2, 2},
          {12, 3, 2}}) {
      constexpr int kBuckets = 16;
      std::vector<double> h0(kBuckets, 0), h1(kBuckets, 0);
      Rng rng(5);
      ShamirScheme scheme(n, tt);
      for (std::size_t i = 0; i < trials; ++i) {
        auto deal_observe = [&](Fp secret) {
          auto shares = scheme.deal({secret}, rng);
          // Observe share 0; at 2 iterations, re-deal it and observe a
          // 2-share instead (the adversary's deepest view).
          if (iters == 2) {
            auto twos = redeal(shares[0], n, tt, rng);
            return twos[0].ys[0];
          }
          return shares[0].ys[0];
        };
        h0[deal_observe(Fp(0)).value() % kBuckets] += 1;
        h1[deal_observe(Fp(1ULL << 60)).value() % kBuckets] += 1;
      }
      double chi2 = 0;
      const double expect = static_cast<double>(trials) / kBuckets;
      for (int b = 0; b < kBuckets; ++b) {
        chi2 += (h0[b] - expect) * (h0[b] - expect) / expect;
        chi2 += (h1[b] - expect) * (h1[b] - expect) / expect;
      }
      t.row({static_cast<std::int64_t>(n), static_cast<std::int64_t>(tt),
             static_cast<std::int64_t>(iters), chi2 / 2.0});
    }
    t.print(std::cout);
  }
  {
    Table t(
        "E8b — reveal correctness: iterated share -> redeal -> recombine "
        "round trips (Definition 1)");
    t.header({"n", "t", "depth", "words", "round_trips", "failures"});
    Rng rng(7);
    for (auto [n, tt, depth] :
         {std::tuple<std::size_t, std::size_t, int>{8, 2, 2},
          {12, 3, 2},
          {12, 3, 3},
          {9, 3, 3}}) {
      const std::size_t reps = 100;
      std::size_t failures = 0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        std::vector<Fp> secret(4);
        for (auto& w : secret) w = Fp(rng.next());
        ShamirScheme scheme(n, tt);
        auto ones = scheme.deal(secret, rng);
        // Recursively re-deal to `depth` and fold back.
        std::function<VectorShare(const VectorShare&, int)> fold =
            [&](const VectorShare& share, int d) -> VectorShare {
          if (d == 0) return share;
          auto subs = redeal(share, n, tt, rng);
          std::vector<VectorShare> back;
          for (const auto& sub : subs) back.push_back(fold(sub, d - 1));
          return recombine(back, share.x, tt);
        };
        std::vector<VectorShare> folded;
        for (const auto& s : ones) folded.push_back(fold(s, depth - 1));
        if (recover_secret(folded, tt) != secret) ++failures;
      }
      failed |= failures != 0;
      t.row({static_cast<std::int64_t>(n), static_cast<std::int64_t>(tt),
             static_cast<std::int64_t>(depth), std::int64_t{4},
             static_cast<std::int64_t>(reps),
             static_cast<std::int64_t>(failures)});
    }
    t.print(std::cout);
  }
  {
    Table t(
        "E8c — Berlekamp-Welch extension: decode success vs corrupted "
        "shares (d=12, t=3: budget e = 4; the sendDown margin)");
    t.header({"corrupted", "success_rate", "within_budget"});
    Rng rng(11);
    ShamirScheme scheme(12, 3);
    const std::size_t reps = 400;
    for (std::size_t bad = 0; bad <= 6; ++bad) {
      std::size_t ok = 0;
      for (std::size_t rep = 0; rep < reps; ++rep) {
        std::vector<Fp> secret{Fp(rng.next())};
        auto shares = scheme.deal(secret, rng);
        for (auto b : rng.sample_without_replacement(12, bad))
          shares[b].ys[0] = Fp(rng.next());
        auto rec = robust_reconstruct(shares, 3);
        if (rec && *rec == secret) ++ok;
      }
      failed |= bad <= 4 && ok != reps;
      t.row({static_cast<std::int64_t>(bad),
             static_cast<double>(ok) / static_cast<double>(reps),
             std::string(bad <= 4 ? "yes" : "no")});
    }
    t.print(std::cout);
  }
  if (failed) {
    std::cerr << "E8: a round trip or a within-budget decode failed\n";
    return 1;
  }
  return 0;
}
