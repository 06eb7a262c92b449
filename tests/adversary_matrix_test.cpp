// Adversary scenario matrix: every concrete strategy in
// adversary/strategies.h driven against both the paper's protocol stack
// (everywhere BA = tournament AEBA + A2E) and the quadratic baseline
// (Ben-Or), under the parallel round engine (4 pool workers). The base
// cells are registry scenarios (sim/scenario.h: matrix_everywhere,
// matrix_everywhere_split, matrix_benor, matrix_clamped); each cell swaps
// in one adversary strategy via the fluent builder and shifts every seed
// by the strategy index — the matrix is the registry spec × strategy
// cross product, not a separate wiring. Each cell asserts the
// protocol-level invariants that must survive that attack — agreement
// among good processors, validity of the decided bit against the
// unanimous good input, and the adaptive-corruption budget — so a
// strategy regression (an attack silently becoming a no-op) or a
// protocol regression (an attack suddenly winning) both fail loudly.
#include <gtest/gtest.h>

#include "common/pool.h"
#include "sim/protocol.h"
#include "sim/scenario.h"

namespace ba {
namespace {

using sim::AdversaryKind;
using sim::RunReport;
using sim::ScenarioRegistry;
using sim::ScenarioSpec;

/// The four strategies with their historical per-strategy fractions
/// (strategies are constructed fresh per cell inside run_scenario;
/// AdaptiveWinnerTakeover accumulates observations and takes no
/// fraction).
struct StrategyCell {
  AdversaryKind kind;
  double fraction;       ///< ignored by the takeover strategy
  const char* name;
};

constexpr StrategyCell kStrategies[] = {
    {AdversaryKind::kStaticMalicious, 0.15, "static-malicious"},
    {AdversaryKind::kCrash, 0.20, "crash"},
    {AdversaryKind::kAdaptiveTakeover, 0.0, "adaptive-winner-takeover"},
    {AdversaryKind::kA2EFlooding, 0.15, "a2e-flooding"},
};

/// Base spec + strategy cell -> the cell's spec; seeds shift with the
/// strategy index (the historical `1000 + which` wiring).
RunReport run_cell(const ScenarioSpec& base, int which) {
  const StrategyCell& cell = kStrategies[which];
  ScenarioSpec spec = base.with_adversary(cell.kind);
  if (cell.kind != AdversaryKind::kAdaptiveTakeover)
    spec = spec.with_corrupt_fraction(cell.fraction);
  return sim::run_scenario(spec, static_cast<std::uint64_t>(which));
}

class AdversaryMatrixTest : public ::testing::Test {
 protected:
  // The matrix is an explicit parallel-engine workload: TSan CI runs it
  // with real worker fan-out across delivery, elections, and tallies.
  void SetUp() override { Pool::set_threads(4); }
  void TearDown() override { Pool::set_threads(0); }
};

TEST_F(AdversaryMatrixTest, EverywhereBaSurvivesEveryStrategy) {
  const std::size_t n = 64;
  // Unanimous good inputs: validity then pins the decided bit, so a
  // successful attack cannot hide behind a "both answers were valid"
  // split start.
  const ScenarioSpec base = ScenarioRegistry::get("matrix_everywhere");
  for (int which = 0; which < 4; ++which) {
    SCOPED_TRACE(kStrategies[which].name);
    const RunReport result = run_cell(base, which);

    // Corruption budget: the (1/3 - eps) cap held throughout.
    EXPECT_LE(result.corrupt_count, n / 3);
    // Validity: the decided bit is the unanimous good input.
    EXPECT_EQ(result.validity, 1);
    EXPECT_EQ(result.decided_bit, 1);
    if (kStrategies[which].kind == AdversaryKind::kAdaptiveTakeover) {
      // The full-budget adaptive takeover (experiment E10) measurably
      // erodes laptop-scale agreement — the theorem's constants want
      // larger n — but a strong majority of good processors must still
      // hold the valid bit, and the attack must actually have spent
      // adaptive corruptions to get even that far.
      EXPECT_GE(result.agreement_fraction, 0.6);
      EXPECT_GE(result.corrupt_count, n / 6);
    } else {
      // Bounded-fraction strategies: the tournament keeps almost all
      // good processors together and A2E finishes the job.
      EXPECT_EQ(result.all_good_agree, 1);
      EXPECT_GE(result.agreement_fraction, 0.8);
    }
  }
}

TEST_F(AdversaryMatrixTest, EverywhereBaSplitInputsStayConsistent) {
  // Split starts under the two actively lying strategies: whatever bit
  // wins must be some good processor's input, and the good population
  // must not be torn apart.
  const std::size_t n = 64;
  const ScenarioSpec base = ScenarioRegistry::get("matrix_everywhere_split");
  for (int which : {0, 2}) {
    SCOPED_TRACE(kStrategies[which].name);
    const RunReport result = run_cell(base, which);
    EXPECT_LE(result.corrupt_count, n / 3);
    EXPECT_EQ(result.validity, 1);
    if (kStrategies[which].kind == AdversaryKind::kAdaptiveTakeover) {
      EXPECT_GE(result.agreement_fraction, 0.6);  // E10 erosion, see above
    } else {
      EXPECT_EQ(result.all_good_agree, 1);
    }
  }
}

TEST_F(AdversaryMatrixTest, BenOrBaselineSurvivesEveryStrategy) {
  // Ben-Or tolerates t < n/5; the budget is capped accordingly and every
  // strategy's corruption attempt is clamped to it by the network.
  const std::size_t n = 50;
  const ScenarioSpec base = ScenarioRegistry::get("matrix_benor");
  for (int which = 0; which < 4; ++which) {
    SCOPED_TRACE(kStrategies[which].name);
    const RunReport res = run_cell(base, which);
    EXPECT_LE(res.corrupt_count, n / 6);
    EXPECT_EQ(res.decided_bit, 1);
    EXPECT_EQ(res.validity, 1);
    EXPECT_EQ(res.all_good_agree, 1);
    EXPECT_GE(res.agreement_fraction, 0.99);
  }
}

TEST_F(AdversaryMatrixTest, GreedyStrategiesAreClampedToBudget) {
  // Strategies asked for far more than the budget allows must be clamped
  // by the network, not throw through the protocol. The matrix_clamped
  // spec carries the greedy 0.9 fraction and the 256-per-pair flood.
  const std::size_t n = 64;
  const ScenarioSpec base = ScenarioRegistry::get("matrix_clamped");
  for (int which = 0; which < 4; ++which) {
    SCOPED_TRACE(kStrategies[which].name);
    ScenarioSpec spec =
        base.with_adversary(kStrategies[which].kind);
    const RunReport result =
        sim::run_scenario(spec, static_cast<std::uint64_t>(which));
    EXPECT_LE(result.corrupt_count, n / 8);
    EXPECT_EQ(result.validity, 1);
  }
}

// ------------------------------------------------- scheduler matrix --
// The ROADMAP's open (protocol × scheduler mode × delta_max) matrix:
// partial synchrony must degrade the way PR 8 pinned it — agreement
// non-increasing as delta_max grows, validity 1 throughout, and
// delta_max = 0 byte-identical to lockstep (the scheduler fast path).

constexpr std::size_t kDeltas[] = {0, 2, 8};

sim::RunReport run_sched_cell(const ScenarioSpec& base,
                              sim::SchedulerKind mode, std::size_t delta) {
  return sim::run_scenario(base.with_scheduler(mode)
                               .with_delta_max(delta)
                               .with_scheduler_seed(5));
}

TEST_F(AdversaryMatrixTest, SchedulerMatrixEverywhereDegradesGracefully) {
  const ScenarioSpec base = ScenarioRegistry::get("matrix_everywhere");
  for (sim::SchedulerKind mode : {sim::SchedulerKind::kBoundedDelay,
                                  sim::SchedulerKind::kReorderRush}) {
    double prev_agreement = 1.0;
    for (std::size_t delta : kDeltas) {
      SCOPED_TRACE(std::string(sim::to_string(mode)) + " delta_max=" +
                   std::to_string(delta));
      const sim::RunReport r = run_sched_cell(base, mode, delta);
      EXPECT_EQ(r.validity, 1);
      EXPECT_EQ(r.decided_bit, 1);
      // Phase-1 agreement erodes with the delay bound but never jumps
      // back up, and A2E still repairs the stragglers at these deltas.
      EXPECT_LE(r.agreement_fraction, prev_agreement + 1e-12);
      EXPECT_GE(r.agreement_fraction, 0.9);
      EXPECT_EQ(r.all_good_agree, 1);
      prev_agreement = r.agreement_fraction;
    }
  }
}

TEST_F(AdversaryMatrixTest, SchedulerMatrixBenOrKeepsAgreementUnderGrace) {
  // Ben-Or gets a per-phase grace window of delta_max extra rounds, so
  // its asynchrony tolerance actually shows: full agreement and validity
  // at every delta, in both adversarial modes.
  const ScenarioSpec base = ScenarioRegistry::get("matrix_benor");
  for (sim::SchedulerKind mode : {sim::SchedulerKind::kBoundedDelay,
                                  sim::SchedulerKind::kReorderRush}) {
    for (std::size_t delta : kDeltas) {
      SCOPED_TRACE(std::string(sim::to_string(mode)) + " delta_max=" +
                   std::to_string(delta));
      const sim::RunReport r = run_sched_cell(base, mode, delta);
      EXPECT_EQ(r.validity, 1);
      EXPECT_EQ(r.decided_bit, 1);
      EXPECT_EQ(r.all_good_agree, 1);
      EXPECT_DOUBLE_EQ(r.agreement_fraction, 1.0);
    }
  }
}

TEST_F(AdversaryMatrixTest, SchedulerDeltaZeroIsByteIdenticalToLockstep) {
  // delta_max = 0 must not just behave like lockstep — it must be
  // observably byte-identical (every delay draw would be below(1) == 0),
  // which is what lets the scheduler skip the per-envelope path there.
  for (const char* scenario : {"matrix_everywhere", "matrix_benor"}) {
    SCOPED_TRACE(scenario);
    const ScenarioSpec base = ScenarioRegistry::get(scenario);
    const sim::RunReport lockstep = sim::run_scenario(base);
    const sim::RunReport delayed = sim::run_scenario(
        base.with_scheduler(sim::SchedulerKind::kBoundedDelay)
            .with_delta_max(0)
            .with_scheduler_seed(5));
    EXPECT_EQ(lockstep.fingerprint, delayed.fingerprint);
    EXPECT_EQ(lockstep.rounds, delayed.rounds);
    EXPECT_EQ(lockstep.max_bits_good, delayed.max_bits_good);
  }
}

}  // namespace
}  // namespace ba
