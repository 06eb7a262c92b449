// The scenario layer's own contract tests (sim/scenario.h, sim/report.h,
// sim/protocol.h):
//
//  * spec round-trip — every registry spec serializes to key=value and
//    parses back identical (the `ba_run --describe` / `--set` grammar);
//  * golden RunReport JSON — one scenario per protocol kind at fixed
//    seed must emit byte-identical JSON (schema, values and extras) to
//    the committed files under tests/golden/. Regenerate with
//      ba_run --scenario <name> --set workers=1 --json --no-timing
//    (plus `--set n=64` for quickstart and randomness_beacon) after a
//    *deliberate* protocol or schema change;
//  * report semantics — fingerprint invariance vs the run detail,
//    stable double formatting, unknown-key rejection;
//  * resolve_scenario — the tools' one --scenario/--set lookup.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/pool.h"
#include "sim/protocol.h"
#include "sim/report.h"
#include "sim/scenario.h"

namespace ba {
namespace {

using sim::RunReport;
using sim::ScenarioRegistry;
using sim::ScenarioSpec;

std::string read_golden(const std::string& name) {
  const std::string path =
      std::string(BA_REPO_DIR) + "/tests/golden/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string report_json(const RunReport& report) {
  std::ostringstream os;
  report.write_json(os, /*include_timing=*/false);
  os << '\n';
  return os.str();
}

TEST(ScenarioSpec, RoundTripsThroughKvForEveryRegistryEntry) {
  const auto& all = ScenarioRegistry::all();
  ASSERT_FALSE(all.empty());
  for (const ScenarioSpec& spec : all) {
    const ScenarioSpec reparsed = ScenarioSpec::from_kv(spec.to_kv());
    EXPECT_EQ(spec, reparsed) << "spec " << spec.name
                              << " does not round-trip through key=value";
  }
}

TEST(ScenarioSpec, RegistryNamesAreUniqueAndFindable) {
  const auto names = ScenarioRegistry::names(/*include_heavy=*/true);
  std::set<std::string> unique(names.begin(), names.end());
  EXPECT_EQ(unique.size(), names.size());
  for (const auto& name : names)
    EXPECT_NE(ScenarioRegistry::find(name), nullptr);
  EXPECT_EQ(ScenarioRegistry::find("no_such_scenario"), nullptr);
  // The smoke list excludes heavy configs; the full list contains them.
  const auto smoke = ScenarioRegistry::names(false);
  EXPECT_LT(smoke.size(), names.size());
  for (const auto& name : smoke)
    EXPECT_FALSE(ScenarioRegistry::get(name).heavy);
}

TEST(ScenarioSpec, ApplyRejectsUnknownKeysAndBadBooleans) {
  ScenarioSpec spec = ScenarioRegistry::get("quickstart");
  EXPECT_THROW(spec.apply("no_such_key", "1"), std::logic_error);
  EXPECT_THROW(spec.apply("release_sequence", "maybe"), std::logic_error);
  spec.apply("n", "64");
  EXPECT_EQ(spec.n, 64u);
  spec.apply("adversary", "crash");
  EXPECT_EQ(spec.adversary, sim::AdversaryKind::kCrash);
}

TEST(ScenarioSpec, ApplyRejectsSignedPaddedAndOutOfRangeIntegers) {
  // strtoull alone accepts a sign (wrapping "-5" to 2^64 - 5) and leading
  // whitespace, and saturates out-of-range values; integer keys must not.
  ScenarioSpec spec = ScenarioRegistry::get("e3_aeba");
  for (const char* bad : {"-5", "+5", " 5", "5 ", "", "18446744073709551616"})
    EXPECT_THROW(spec.apply("aeba_instances", bad), std::logic_error)
        << "'" << bad << "'";
  EXPECT_THROW(spec.apply("n", "-1"), std::logic_error);
  spec.apply("adversary_seed", "18446744073709551615");  // 2^64 - 1 fits
  EXPECT_EQ(spec.adversary_seed, UINT64_MAX);
  // input_value is one bit: 2 (or 256, which used to narrow to 0) fails.
  EXPECT_THROW(spec.apply("input_value", "2"), std::logic_error);
  EXPECT_THROW(spec.apply("input_value", "256"), std::logic_error);
  spec.apply("input_value", "0");
  EXPECT_EQ(spec.input_value, 0);
}

TEST(ScenarioSpec, ResolveAppliesOverridesInOrderAndRejectsBadInput) {
  // The lookup behind every tool's --scenario/--set: later overrides
  // win, and every kind of bad input throws (the tools exit 2 on it).
  const ScenarioSpec spec = sim::resolve_scenario(
      "quickstart", {"n=64", "corrupt_fraction=0.2", "n=96"});
  EXPECT_EQ(spec.name, "quickstart");
  EXPECT_EQ(spec.n, 96u);
  EXPECT_EQ(spec.corrupt_fraction, 0.2);
  EXPECT_EQ(sim::resolve_scenario("quickstart", {}),
            ScenarioRegistry::get("quickstart"));
  EXPECT_THROW(sim::resolve_scenario("quickstart", {"n64"}),
               std::invalid_argument);
  EXPECT_THROW(sim::resolve_scenario("quickstart", {"n=abc"}),
               std::invalid_argument);
  EXPECT_THROW(sim::resolve_scenario("quickstart", {"no_such_key=1"}),
               std::invalid_argument);
  // The error text is only what a user needs: no checked expression and
  // no source location.
  try {
    sim::resolve_scenario("no_such_scenario", {});
    FAIL() << "unknown scenario accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "unknown scenario: no_such_scenario");
  }
}

TEST(ScenarioSpec, FromKvRejectsDuplicateKeys) {
  // A duplicated key must not last-win: a sweep/fuzz artifact line has to
  // reconstruct exactly one spec or refuse loudly.
  auto kv = ScenarioRegistry::get("quickstart").to_kv();
  kv.emplace_back("n", "32");
  try {
    ScenarioSpec::from_kv(kv);
    FAIL() << "duplicate key accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate scenario spec key: n"),
              std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpec, FromKvRejectsUnknownKeysByName) {
  auto kv = ScenarioRegistry::get("quickstart").to_kv();
  kv.emplace_back("no_such_knob", "1");
  try {
    ScenarioSpec::from_kv(kv);
    FAIL() << "unknown key accepted";
  } catch (const std::logic_error& e) {
    EXPECT_NE(
        std::string(e.what()).find("unknown scenario spec key: no_such_knob"),
        std::string::npos)
        << e.what();
  }
}

TEST(ScenarioSpec, BuilderOverridesRoundTrip) {
  // A builder-derived spec (the parity suite's derivation idiom) still
  // round-trips, and the fluent overrides land in the serialized form.
  const ScenarioSpec spec = ScenarioRegistry::get("e3_aeba")
                                .with_n(96)
                                .with_aeba_rounds(16)
                                .with_aeba_instances(3);
  const ScenarioSpec reparsed = ScenarioSpec::from_kv(spec.to_kv());
  EXPECT_EQ(spec, reparsed);
  EXPECT_EQ(reparsed.n, 96u);
  EXPECT_EQ(reparsed.aeba_rounds, 16u);
  EXPECT_EQ(reparsed.aeba_instances, 3u);
}

// The golden runs pin spec.workers = 1 so the report's `workers` field
// is environment-independent (the fingerprint is worker-invariant by the
// parity contract; the worker *count* is honest reporting and would
// otherwise track BA_THREADS).
TEST(RunReportGolden, QuickstartJsonIsByteStable) {
  const RunReport report = sim::run_scenario(
      ScenarioRegistry::get("quickstart").with_n(64).with_workers(1));
  EXPECT_EQ(report_json(report), read_golden("quickstart_n64.json"));
}

TEST(RunReportGolden, RandomnessBeaconJsonIsByteStable) {
  const RunReport report =
      sim::run_scenario(ScenarioRegistry::get("randomness_beacon")
                            .with_n(64)
                            .with_workers(1));
  EXPECT_EQ(report_json(report), read_golden("randomness_beacon_n64.json"));
}

TEST(RunReportGolden, OneFullReportPerProtocolKind) {
  // The registry golden pins fingerprints only; these pin every report
  // field and every extra, in order, for the kinds the two goldens above
  // leave out (almost_everywhere here with release_sequence=0).
  using sim::ProtocolKind;
  const std::pair<const char*, ProtocolKind> pinned[] = {
      {"e4_flooding", ProtocolKind::kA2E},
      {"e3_aeba_unanimous", ProtocolKind::kAeba},
      {"e2_almost_everywhere", ProtocolKind::kAlmostEverywhere},
      {"benor_delay", ProtocolKind::kBenOr},
      {"e9_rabin", ProtocolKind::kRabin},
      {"e13_universe_small", ProtocolKind::kUniverseReduction},
      {"e10_proc_adaptive", ProtocolKind::kProcessorElection},
  };
  std::set<ProtocolKind> kinds = {ProtocolKind::kEverywhere,
                                  ProtocolKind::kAlmostEverywhere};
  for (const auto& [name, kind] : pinned) {
    const ScenarioSpec spec = ScenarioRegistry::get(name).with_workers(1);
    EXPECT_EQ(spec.protocol, kind) << name;
    const RunReport report = sim::run_scenario(spec);
    EXPECT_EQ(report_json(report), read_golden(std::string(name) + ".json"))
        << name;
    kinds.insert(kind);
  }
  EXPECT_FALSE(ScenarioRegistry::get("e2_almost_everywhere").release_sequence);
  EXPECT_EQ(kinds.size(), 8u);  // every ProtocolKind
}

TEST(RunReport, TimingFieldOnlyInTimedForm) {
  const RunReport report = sim::run_scenario(
      ScenarioRegistry::get("e9_benor_small"));
  std::ostringstream timed, stable;
  report.write_json(timed, true);
  report.write_json(stable, false);
  EXPECT_NE(timed.str().find("\"wall_ms\":"), std::string::npos);
  EXPECT_EQ(stable.str().find("\"wall_ms\":"), std::string::npos);
  // The stable form is a prefix relation: identical except the timing.
  EXPECT_EQ(timed.str().substr(0, stable.str().size() - 1),
            stable.str().substr(0, stable.str().size() - 1));
}

TEST(RunReport, DetailCarriesTheFullResult) {
  const RunReport report =
      sim::run_scenario(ScenarioRegistry::get("e13_universe_small"));
  ASSERT_TRUE(report.detail != nullptr);
  ASSERT_TRUE(report.detail->universe.has_value());
  EXPECT_EQ(report.detail->universe->committee.size(), 8u);
  EXPECT_EQ(report.detail->corrupt_mask.size(), report.n);
}

TEST(RunReport, JsonDoubleRoundTrips) {
  for (double v : {0.0, 0.1, 1.0 / 3.0, 0.95, 1e-17, 123456.789}) {
    const std::string s = sim::json_double(v);
    EXPECT_EQ(std::stod(s), v) << s;
  }
}

TEST(RunScenario, SeedOffsetShiftsEverySeedUniformly) {
  // Offset k must equal baking k into the seeds (the benches' `base + s`
  // sweep contract).
  const ScenarioSpec base = ScenarioRegistry::get("e9_benor_small");
  const RunReport shifted = sim::run_scenario(base, 5);
  ScenarioSpec baked = base;
  baked.adversary_seed += 5;
  baked.input_seed += 5;
  baked.protocol_seed += 5;
  const RunReport direct = sim::run_scenario(baked, 0);
  EXPECT_EQ(shifted.fingerprint, direct.fingerprint);
}

TEST(RunScenario, WorkerCountsAboveThePoolCeilingAreRejected) {
  // A count from outside the program (--workers, --set workers=,
  // BA_THREADS) must be refused before any thread starts, and leave the
  // pool as it was.
  const std::size_t before = Pool::num_threads();
  EXPECT_THROW(Pool::set_threads(Pool::kMaxThreads + 1), std::logic_error);
  EXPECT_EQ(Pool::num_threads(), before);
  ScenarioSpec spec = ScenarioRegistry::get("e9_benor_small");
  EXPECT_THROW(spec.apply("workers", std::to_string(Pool::kMaxThreads + 1)),
               std::logic_error);
  spec.workers = Pool::kMaxThreads + 1;
  EXPECT_THROW(sim::run_scenario(spec), std::logic_error);
  EXPECT_EQ(Pool::num_threads(), before);
}

}  // namespace
}  // namespace ba
