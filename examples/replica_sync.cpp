// Replica synchronisation — the OceanStore/PBFT motivation from the
// paper's introduction: "Byzantine agreement requires a number of messages
// quadratic in the number of participants, so it is infeasible for use in
// synchronizing a large number of replicas."
//
// A large replica fleet must agree whether to commit a proposed state
// update. Some replicas saw the update (vote 1), laggards did not (vote
// 0), and a Byzantine minority actively fights commitment. The example
// runs a sequence of commit decisions and reports throughput-relevant
// stats: per-decision bits per replica vs the quadratic alternative.
//
// Each commit decision is the registry's `replica_sync_commit` scenario
// with the update-visibility fraction overridden and the seeds shifted
// per decision (run_scenario's seed_offset); the quadratic alternative is
// the `replica_sync_rabin` scenario on the same simulator and ledger.
#include <cstdio>

#include "example_args.h"
#include "sim/protocol.h"
#include "sim/scenario.h"

namespace {

int run(const ba::sim::ScenarioSpec& commit_spec) {
  const std::size_t n = commit_spec.n;
  std::printf("replica fleet: %zu replicas, 10%% Byzantine\n\n", n);

  const double seen[] = {0.95, 0.70, 0.30, 0.05};
  std::printf("%-22s %-10s %-12s %-16s\n", "update visibility", "commit?",
              "consistent?", "max bits/replica");
  std::uint64_t worst_bits = 0;
  for (int i = 0; i < 4; ++i) {
    const ba::sim::RunReport st = ba::sim::run_scenario(
        commit_spec.with_input_fraction(seen[i]), 31 * i);
    worst_bits = std::max(worst_bits, st.max_bits_good);
    std::printf("%-22.0f%% %-10s %-12s %-16llu\n", 100 * seen[i],
                st.decided_bit == 1 ? "yes" : "no",
                st.all_good_agree == 1 ? "yes" : "no",
                static_cast<unsigned long long>(st.max_bits_good));
  }

  // The quadratic alternative for one decision, same simulator.
  const ba::sim::RunReport rabin = ba::sim::run_scenario(
      ba::sim::ScenarioRegistry::get("replica_sync_rabin").with_n(n));

  std::printf(
      "\nPer-replica bits, one commit decision:\n"
      "  all-to-all (Rabin) : %llu  — grows ~linearly with fleet size\n"
      "  King-Saia          : %llu  — grows ~sqrt with fleet size "
      "(Theorem 1)\n",
      static_cast<unsigned long long>(rabin.max_bits_good),
      static_cast<unsigned long long>(worst_bits));
  std::printf(
      "(At this laptop-scale fleet the tournament's constants dominate; "
      "the asymptotic win is the E9 bench's crossover table.)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return ba::examples::run_example(
      ba::sim::ScenarioRegistry::get("replica_sync_commit").with_n(256), argc,
      argv, {"n"}, "[n]", run);
}
