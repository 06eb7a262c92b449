// Committee sampling via universe reduction — the "sharded consensus"
// pattern: a large validator set periodically samples a small committee
// from unbiased, agreed randomness (no trusted dealer), then hands the
// committee short-lived work.
//
// The §1.3 caveat applies and is measured: by the time the sample is
// public, an adaptive adversary can corrupt it, so committees must hold
// no long-lived secrets — sample fresh, use immediately, rotate. The
// wiring is the registry's `committee_sampling` scenario.
#include <cstdio>
#include <vector>

#include "example_args.h"
#include "sim/protocol.h"
#include "sim/scenario.h"

namespace {

int run(const ba::sim::ScenarioSpec& spec) {
  const std::size_t n = spec.n;
  const ba::sim::RunReport report = ba::sim::run_scenario(spec);
  const ba::UniverseResult& res = *report.detail->universe;

  std::printf("validator set: %zu nodes (10%% malicious)\n\n", n);
  std::printf("sampled committee (%zu members): ", res.committee.size());
  for (auto p : res.committee) std::printf("%u ", p);
  std::printf("\n\n");
  std::printf("good fraction — committee:  %.1f%%\n",
              100 * res.good_fraction_at_sampling);
  std::printf("good fraction — population: %.1f%%\n",
              100 * res.population_good_fraction);
  std::printf("honest nodes agreeing on the committee: %.1f%%\n\n",
              100 * res.view_agreement);

  // Once the sample is public, the adaptive adversary spends its
  // remaining budget on it (replayed on the final corruption mask).
  std::vector<bool> corrupt = report.detail->corrupt_mask;
  std::size_t budget_left = n / 3 - report.corrupt_count;
  std::size_t corrupted = 0;
  for (auto p : res.committee) {
    if (!corrupt[p] && budget_left > 0) {
      corrupt[p] = true;
      --budget_left;
    }
    corrupted += corrupt[p] ? 1 : 0;
  }
  std::printf("committee corrupted — at sampling:        %.1f%%\n",
              100 * (1.0 - res.good_fraction_at_sampling));
  std::printf("committee corrupted — after publication:  %.1f%%\n\n",
              100 * static_cast<double>(corrupted) /
                  static_cast<double>(res.committee.size()));
  std::printf(
      "Rotate early, rotate often: once printed, an adaptive adversary\n"
      "can corrupt this committee (Section 1.3) — it must hold no\n"
      "long-lived secrets.\n");
  return res.view_agreement > 0.8 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ba::examples::run_example(
      ba::sim::ScenarioRegistry::get("committee_sampling").with_n(256), argc,
      argv, {"n"}, "[n]", run);
}
