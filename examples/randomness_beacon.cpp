// Distributed randomness beacon — the §3.5 global coin subsequence as a
// service. A network of nodes, none of which is trusted individually,
// periodically emits random words that (a) almost all honest nodes agree
// on and (b) the adversary could neither predict nor bias: the words were
// secret-shared before anyone knew which arrays would win the tournament,
// and they are only reconstructed at release time.
//
// This is the primitive blockchain systems reach for (leader election,
// committee sampling, lottery draws). The wiring is the registry's
// `randomness_beacon` scenario; the word views come from the report's
// detail block (the full AeResult).
#include <cstdio>
#include <vector>

#include "core/global_coin.h"
#include "example_args.h"
#include "sim/protocol.h"
#include "sim/scenario.h"

namespace {

int run(const ba::sim::ScenarioSpec& spec) {
  const std::size_t n = spec.n;
  const ba::sim::RunReport report = ba::sim::run_scenario(spec);
  const ba::AeResult& result = *report.detail->ae;
  const ba::SequenceQuality& quality = *report.detail->sequence_quality;
  const std::vector<bool>& corrupt_mask = report.detail->corrupt_mask;

  std::printf("beacon over %zu nodes (10%% malicious)\n", n);
  std::printf("emitted words:   %zu\n", quality.length);
  std::printf("usable words:    %zu (honest, intact, agreed a.e.)\n",
              quality.good_words);
  std::printf("min agreement:   %.1f%% of honest nodes share each view\n",
              100 * quality.min_good_agreement);
  std::printf("bit balance:     %.2f (0.5 = unbiased)\n",
              quality.good_bit_bias);
  // Serial correlation: consecutive usable words repeat their low bit
  // about half the time when the words are independent.
  std::vector<std::uint64_t> bits;
  for (std::size_t i = 0; i < result.seq_views.size(); ++i)
    if (result.seq_word_good[i]) bits.push_back(result.seq_truth[i] & 1);
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < bits.size(); ++i)
    repeats += bits[i] == bits[i - 1] ? 1 : 0;
  std::printf("serial match:    %.2f (0.5 = uncorrelated)\n\n",
              bits.size() > 1 ? static_cast<double>(repeats) /
                                    static_cast<double>(bits.size() - 1)
                              : 0.5);

  std::printf("first beacon outputs (plurality view, usable words):\n");
  std::size_t shown = 0;
  for (std::size_t i = 0; i < result.seq_views.size() && shown < 8; ++i) {
    if (!result.seq_word_good[i]) continue;
    const std::uint64_t value =
        ba::sequence_plurality(result, i, corrupt_mask);
    if (value != result.seq_truth[i]) continue;  // damaged in transit
    std::printf("  word %2zu: %016llx  (agreement %.1f%%)\n", i,
                static_cast<unsigned long long>(value),
                100 * ba::sequence_agreement(result, i, corrupt_mask));
    ++shown;
  }
  return quality.good_words * 2 >= quality.length ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return ba::examples::run_example(
      ba::sim::ScenarioRegistry::get("randomness_beacon").with_n(256), argc,
      argv, {"n"}, "[n]", run);
}
