// Quickstart: run everywhere Byzantine agreement (Theorem 1) on a small
// simulated network and print what happened.
//
//   $ ./quickstart [n] [corrupt_fraction]
//
// 128 processors, 10% of which are malicious (garbage shares, colluding
// anti-majority votes), disagree about a bit; the King-Saia protocol
// brings every good processor to the same valid decision while each good
// processor sends far fewer bits than the all-to-all baseline would need.
//
// The run is one registry scenario (sim/scenario.h): the spec names the
// network, adversary, inputs and seeds; `run_scenario` drives the
// protocol and returns a RunReport with everything printed below. Try
// `ba_run --scenario quickstart --json` for the machine-readable form.
#include <cstdio>

#include "example_args.h"
#include "sim/protocol.h"
#include "sim/scenario.h"

namespace {

int run(const ba::sim::ScenarioSpec& spec) {
  const ba::sim::RunReport report = ba::sim::run_scenario(spec);

  std::printf("n = %zu, corrupt = %.0f%%\n", spec.n,
              100 * spec.corrupt_fraction);
  std::printf("decided bit:              %d\n", report.decided_bit);
  std::printf("validity (some good input): %s\n",
              report.validity == 1 ? "yes" : "no");
  std::printf("all good processors agree: %s\n",
              report.all_good_agree == 1 ? "yes" : "no");
  std::printf("almost-everywhere phase agreement: %.1f%%\n",
              100 * report.agreement_fraction);
  std::printf("rounds: %llu\n",
              static_cast<unsigned long long>(report.rounds));
  std::printf("max bits sent by a good processor: %llu\n",
              static_cast<unsigned long long>(report.max_bits_good));
  std::printf("total bits sent by good processors: %llu\n",
              static_cast<unsigned long long>(report.total_bits_good));
  return report.all_good_agree == 1 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ba::examples::run_example(
      ba::sim::ScenarioRegistry::get("quickstart")
          .with_n(128)
          .with_corrupt_fraction(0.10),
      argc, argv, {"n", "corrupt_fraction"}, "[n] [corrupt_fraction]", run);
}
