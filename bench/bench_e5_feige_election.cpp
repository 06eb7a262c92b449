// E5 — Lemma 4 (Feige's lightest bin): "Let S be the set of bin choices
// generated independently at random. Then even if the adversary sets the
// remaining bits after seeing the bin choices of S, with probability at
// least 1 - 2^{-2|S|/(3 numBins)} there are at least (1/numBins - eps)|S|
// winners from S" — i.e. the good-winner fraction stays near |S|/r.
//
// Sweeps r with |S| = 2r/3 honest choices and two adversarial strategies
// (stuff-the-lightest-bin, spread), reporting the measured good-winner
// fraction against the |S|/r - 1/log n reference.
#include <cmath>
#include <iostream>

#include "adversary/strategies.h"
#include "common/rng.h"
#include "common/table.h"
#include "election/feige.h"

namespace ba {
namespace {

double good_winner_fraction(std::size_t r, std::size_t w, double good_frac,
                            bool stuff, std::size_t trials,
                            std::uint64_t seed) {
  ElectionParams ep{r, w};
  const std::size_t nbins = ep.num_bins();
  const std::size_t good = static_cast<std::size_t>(good_frac * r);
  Rng rng(seed);
  double sum = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    std::vector<std::uint32_t> gbins(good);
    for (auto& b : gbins) b = static_cast<std::uint32_t>(rng.below(nbins));
    auto bins = stuff ? bins_with_stuffing(gbins, r - good, nbins)
                      : bins_with_spread(gbins, r - good, nbins);
    auto winners = lightest_bin_winners(bins, ep);
    std::size_t gw = 0;
    for (auto c : winners) gw += c < good ? 1 : 0;
    sum += static_cast<double>(gw) / static_cast<double>(winners.size());
  }
  return sum / static_cast<double>(trials);
}

}  // namespace
}  // namespace ba

int main() {
  using namespace ba;
  const std::size_t trials = 800;

  Table t(
      "E5 / Lemma 4 — Feige election: good-winner fraction with |S| = 2r/3 "
      "honest bin choices, adversary moves last");
  t.header({"r", "w", "numBins", "stuff_attack", "spread", "reference |S|/r",
            "|S|/r - 1/log r"});
  const std::vector<std::pair<std::size_t, std::size_t>> cases = {
      {16, 2}, {32, 4}, {64, 8}, {128, 8}, {256, 16}, {512, 16}};
  for (auto [r, w] : cases) {
    ElectionParams ep{r, w};
    const double ref = 2.0 / 3.0;
    t.row({static_cast<std::int64_t>(r), static_cast<std::int64_t>(w),
           static_cast<std::int64_t>(ep.num_bins()),
           good_winner_fraction(r, w, 2.0 / 3.0, true, trials, 7 + r),
           good_winner_fraction(r, w, 2.0 / 3.0, false, trials, 9 + r),
           ref, ref - 1.0 / std::log2(static_cast<double>(r))});
  }
  t.print(std::cout);

  // Lemma 4's failure exponent is 2|S| / (3 numBins) — the expected
  // *bin load* of honest choices. The paper's regime has load Θ(log³ n);
  // sweeping the load at fixed r shows the failure rate collapsing, which
  // is the lemma's shape.
  Table t2(
      "E5b / Lemma 4 — P(good winners < |S|/r - 0.15) vs honest bin load "
      "|S|/numBins (stuff attack, r = 512): larger load => smaller tail");
  t2.header({"w", "numBins", "bin_load", "observed_fail_rate",
             "paper_bound 2^{-2|S|/(3 numBins)}"});
  const std::size_t r2 = 512;
  const std::size_t good2 = 2 * r2 / 3;
  for (std::size_t w : {4u, 8u, 16u, 32u, 64u, 128u}) {
    ElectionParams ep{r2, w};
    const std::size_t nbins = ep.num_bins();
    const double floor_frac = 2.0 / 3.0 - 0.15;
    Rng rng(31 + w);
    std::size_t fails = 0;
    for (std::size_t tr = 0; tr < trials; ++tr) {
      std::vector<std::uint32_t> gbins(good2);
      for (auto& b : gbins)
        b = static_cast<std::uint32_t>(rng.below(nbins));
      auto bins = bins_with_stuffing(gbins, r2 - good2, nbins);
      auto winners = lightest_bin_winners(bins, ep);
      std::size_t gw = 0;
      for (auto c : winners) gw += c < good2 ? 1 : 0;
      if (static_cast<double>(gw) <
          floor_frac * static_cast<double>(winners.size()))
        ++fails;
    }
    t2.row({static_cast<std::int64_t>(w), static_cast<std::int64_t>(nbins),
            static_cast<double>(good2) / static_cast<double>(nbins),
            static_cast<double>(fails) / static_cast<double>(trials),
            std::pow(2.0, -2.0 * static_cast<double>(good2) /
                               (3.0 * static_cast<double>(nbins)))});
  }
  t2.print(std::cout);
  return 0;
}
