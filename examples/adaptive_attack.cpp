// The adaptive-adversary story (Section 1.3), as a narrative demo.
//
// Committee election is the classic route to scalable agreement: elect a
// small representative committee, let it decide, broadcast the outcome.
// Against a *static* adversary this works. An *adaptive* adversary simply
// waits for the election result — public by necessity — and corrupts the
// committee, which is small enough to afford. King-Saia's fix: elect
// secret-shared arrays instead of processors. There is nothing useful
// left to corrupt: the winning arrays' owners erased them at the start,
// and the shares are spread over node sets that grow with every level.
//
// Each act is one registry scenario (adaptive_attack_act1..act4).
#include <cstdio>

#include "example_args.h"
#include "sim/protocol.h"
#include "sim/scenario.h"

namespace {

int run(const ba::sim::ScenarioSpec& args) {
  const std::size_t n = args.n;
  auto act = [n](const char* scenario) {
    return ba::sim::run_scenario(
        ba::sim::ScenarioRegistry::get(scenario).with_n(n));
  };

  std::printf("== Act 1: processor election vs static adversary ==\n");
  {
    const auto report = act("adaptive_attack_act1");
    const ba::ProcessorElectionResult& res = *report.detail->election;
    std::printf(
        "  committee of %zu, %zu corrupt; agreement %.0f%%, validity %s\n",
        res.committee.size(), res.committee_corrupt,
        100 * res.ba.agreement_fraction, res.ba.validity ? "yes" : "NO");
  }

  std::printf("\n== Act 2: processor election vs ADAPTIVE adversary ==\n");
  {
    const auto report = act("adaptive_attack_act2");
    const ba::ProcessorElectionResult& res = *report.detail->election;
    std::printf(
        "  committee of %zu, %zu corrupt (taken over after election!);\n"
        "  agreement %.0f%%, validity %s\n",
        res.committee.size(), res.committee_corrupt,
        100 * res.ba.agreement_fraction, res.ba.validity ? "yes" : "NO");
  }

  std::printf("\n== Act 3: array election vs the same ADAPTIVE adversary ==\n");
  {
    const auto report = act("adaptive_attack_act3");
    std::printf(
        "  adversary corrupts every winning array's *owner* — too late:\n"
        "  arrays were secret-shared and erased before the elections.\n"
        "  agreement %.1f%%, decided bit %d, validity %s\n",
        100 * report.agreement_fraction, report.decided_bit,
        report.validity == 1 ? "yes" : "NO");
  }

  std::printf(
      "\n== Act 4: array election vs share-holder takeover ==\n");
  {
    // The strongest attack we can mount: spend the whole n/3 budget on the
    // members of nodes holding winning shares. Asymptotically the holder
    // sets grow q-fold per level while the per-node corrupt fraction stays
    // below 1/3 - eps, so the paper's margins absorb it. At laptop scale
    // the near-root nodes already contain most processors, so a full n/3
    // budget concentrates past the reveal-phase error-correction margin
    // (docs/ARCHITECTURE.md, "Cost accounting") — expect real damage
    // here, unlike Act 3.
    const auto report = act("adaptive_attack_act4");
    std::printf(
        "  adversary floods the nodes *holding* winning shares with its\n"
        "  full n/3 budget: agreement %.1f%%, validity %s\n"
        "  (a laptop-scale margin effect — see docs/ARCHITECTURE.md; the\n"
        "  structural adaptive-security claim is Acts 2 vs 3)\n",
        100 * report.agreement_fraction,
        report.validity == 1 ? "yes" : "no");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Every act runs at the same n, parsed once into a spec of its own.
  return ba::examples::run_example(ba::sim::ScenarioSpec{}.with_n(256), argc,
                                   argv, {"n"}, "[n]", run);
}
