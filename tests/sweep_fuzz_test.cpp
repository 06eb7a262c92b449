// The sweep layer's contract tests (sim/sweep.h):
//
//  * job-line artifacts — format/parse round-trips byte-identically for
//    every registry spec, and malformed lines (duplicate keys, unknown
//    keys, bad escapes) are rejected loudly;
//  * NDJSON reader — parse → re-emit is byte-identical against the
//    committed golden files (both the stable and the timed form), and
//    schema deviations throw;
//  * grid expansion — the default grid is deterministic and ≥ 200 jobs
//    (the committed BENCH_protocol.json's job cloud);
//  * named grids — every grid expands (known scenarios and override
//    keys, no empty tables, fits naming real columns), every table grid
//    prints from one seed per row, malformed grids throw, and
//    `ba_sweep --grid nope` exits 2 naming the known grids;
//  * shards — `ba_sweep --jobs 1` and `--jobs 3` print the same tables,
//    a shard count above kMaxChildren is a usage error, and a timed-out
//    shard fails the sweep with a replay line and leaves no file behind;
//  * aggregation — rates/medians over a synthetic report set, and the
//    exponent fit recovers a planted √n · log³ curve;
//  * the fuzzer itself — a bounded smoke sweep (the CI job runs 1000+)
//    with every invariant holding.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "sim/protocol.h"
#include "sim/sweep.h"

namespace ba {
namespace {

using sim::RunReport;
using sim::ScenarioRegistry;
using sim::ScenarioSpec;
using sim::SweepJob;

std::string read_golden(const std::string& name) {
  const std::string path =
      std::string(BA_REPO_DIR) + "/tests/golden/" + name;
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden file: " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string strip_newline(std::string s) {
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

std::string reemit(const RunReport& r, bool timing) {
  std::ostringstream os;
  r.write_json(os, timing);
  return os.str();
}

TEST(JobLine, RoundTripsForEveryRegistrySpec) {
  for (const ScenarioSpec& spec : ScenarioRegistry::all()) {
    const SweepJob job{spec, 3};
    const std::string line = sim::format_job_line(job);
    const SweepJob parsed = sim::parse_job_line(line);
    EXPECT_EQ(parsed.seed_offset, 3u);
    EXPECT_EQ(parsed.spec, spec) << spec.name;
    EXPECT_EQ(sim::format_job_line(parsed), line) << spec.name;
  }
}

TEST(JobLine, EscapesFreeTextFields) {
  ScenarioSpec spec = ScenarioRegistry::get("quickstart");
  spec.note = "100% spaces\tand\nnewlines";
  const std::string line = sim::format_job_line(SweepJob{spec, 0});
  // The escaped note must not smuggle separators into the line grammar.
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line.find('\t'), std::string::npos);
  const SweepJob parsed = sim::parse_job_line(line);
  EXPECT_EQ(parsed.spec.note, spec.note);
}

TEST(JobLine, RejectsMalformedArtifacts) {
  const std::string line =
      sim::format_job_line(SweepJob{ScenarioRegistry::get("quickstart"), 0});
  EXPECT_THROW(sim::parse_job_line(line + " n=32"), std::logic_error)
      << "duplicate spec key";
  EXPECT_THROW(sim::parse_job_line(line + " seed_offset=1"),
               std::logic_error)
      << "duplicate seed_offset";
  EXPECT_THROW(sim::parse_job_line(line + " bogus_key=1"), std::logic_error)
      << "unknown key";
  EXPECT_THROW(sim::parse_job_line(line + " malformed-token"),
               std::logic_error)
      << "token without =";
  EXPECT_THROW(sim::parse_job_line("seed_offset=x n=16"), std::logic_error)
      << "non-numeric seed_offset";
  const std::string spec_part = line.substr(line.find(' '));
  for (const char* bad : {"-1", "+1", "18446744073709551616"})
    EXPECT_THROW(sim::parse_job_line("seed_offset=" + std::string(bad) +
                                     spec_part),
                 std::logic_error)
        << "seed_offset=" << bad;
  EXPECT_EQ(sim::parse_job_line("seed_offset=7" + spec_part).seed_offset, 7u);
  EXPECT_THROW(sim::parse_job_line(line + " note=bad%G0escape"),
               std::logic_error)
      << "bad percent escape";
}

TEST(NdjsonReader, GoldenReportsRoundTripByteIdentically) {
  for (const char* name :
       {"quickstart_n64.json", "randomness_beacon_n64.json"}) {
    const std::string golden = strip_newline(read_golden(name));
    bool had_timing = true;
    const RunReport parsed = sim::parse_report_json(golden, &had_timing);
    EXPECT_FALSE(had_timing) << name;
    EXPECT_EQ(reemit(parsed, false), golden) << name;
  }
}

TEST(NdjsonReader, TimedReportRoundTripsByteIdentically) {
  const RunReport report =
      sim::run_scenario(ScenarioRegistry::get("e9_benor_small"));
  const std::string timed = reemit(report, true);
  bool had_timing = false;
  const RunReport parsed = sim::parse_report_json(timed, &had_timing);
  EXPECT_TRUE(had_timing);
  EXPECT_EQ(reemit(parsed, true), timed);
  EXPECT_EQ(parsed.fingerprint, report.fingerprint);
  EXPECT_EQ(parsed.wall_ms, report.wall_ms);
}

TEST(NdjsonReader, RejectsSchemaDeviations) {
  const std::string good = strip_newline(read_golden("quickstart_n64.json"));
  EXPECT_THROW(sim::parse_report_json(good + " "), std::logic_error)
      << "trailing bytes";
  EXPECT_THROW(sim::parse_report_json(good.substr(0, good.size() - 1)),
               std::logic_error)
      << "truncated object";
  std::string reordered = good;
  const auto pos = reordered.find("\"rounds\":");
  reordered.replace(pos, 9, "\"Rounds\":");
  EXPECT_THROW(sim::parse_report_json(reordered), std::logic_error)
      << "unexpected key";
}

TEST(Grid, DefaultGridIsDeterministicAndBig) {
  const auto jobs = sim::expand_grid(sim::default_grid());
  EXPECT_GE(jobs.size(), 200u);
  const auto again = sim::expand_grid(sim::default_grid());
  ASSERT_EQ(jobs.size(), again.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(jobs[i].spec, again[i].spec);
    EXPECT_EQ(jobs[i].seed_offset, again[i].seed_offset);
  }
  // The exponent-fit family must span 3+ distinct n of everywhere runs.
  std::vector<std::size_t> fit_ns;
  for (const SweepJob& job : jobs)
    if (job.spec.name == "quickstart" &&
        job.spec.protocol == sim::ProtocolKind::kEverywhere) {
      bool seen = false;
      for (std::size_t n : fit_ns) seen = seen || n == job.spec.n;
      if (!seen) fit_ns.push_back(job.spec.n);
    }
  EXPECT_GE(fit_ns.size(), 3u);
}

TEST(Grid, ExpandAppliesOverridesAndRelabels) {
  sim::GridAxis axis;
  axis.scenario = "quickstart";
  axis.overrides = {{"name", "relabeled"}, {"corrupt_fraction", "0.2"}};
  axis.n_values = {16, 32};
  axis.workers = {1, 2};
  axis.seeds = 3;
  const auto jobs = sim::expand_grid({axis});
  ASSERT_EQ(jobs.size(), 2u * 2u * 3u);
  for (const SweepJob& job : jobs) {
    EXPECT_EQ(job.spec.name, "relabeled");
    EXPECT_EQ(job.spec.corrupt_fraction, 0.2);
  }
  EXPECT_EQ(jobs[0].spec.n, 16u);
  EXPECT_EQ(jobs.back().spec.n, 32u);
  EXPECT_EQ(jobs[0].seed_offset, 0u);
  EXPECT_EQ(jobs[2].seed_offset, 2u);
}

TEST(NamedGrids, GridJobsKeepTheLedgerAxesAndDropRepeats) {
  const sim::NamedGrid* grid = sim::find_grid("default");
  ASSERT_NE(grid, nullptr);
  const auto jobs = sim::grid_jobs(*grid);
  const auto axes = sim::expand_grid(sim::default_grid());
  ASSERT_EQ(jobs.size(), axes.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    EXPECT_EQ(sim::format_job_line(jobs[i]), sim::format_job_line(axes[i]));
  EXPECT_EQ(sim::find_grid("nope"), nullptr);
  // Tables sharing a row run it once: e6 prints levels 2 and 3 of the
  // same 4 rows x 3 seeds.
  EXPECT_EQ(sim::grid_jobs(*sim::find_grid("e6")).size(), 12u);
}

/// `grid` cut to one seed at each row's smallest n, fits dropped (one n
/// cannot be fitted): enough to resolve every column.
sim::NamedGrid smoke_copy(sim::NamedGrid grid) {
  for (sim::GridTable& t : grid.tables) {
    t.fits.clear();
    for (sim::GridAxis& row : t.rows) {
      if (!row.n_values.empty())
        row.n_values = {*std::min_element(row.n_values.begin(),
                                          row.n_values.end())};
      row.seeds = 1;
    }
  }
  return grid;
}

TEST(NamedGrids, EveryTableGridPrintsFromOneSeedPerRow) {
  // Rows of one scenario at one n share a run: sibling rows differ only
  // in knob values, which never change the fields a run reports.
  std::map<std::string, RunReport> runs;
  for (const sim::NamedGrid& grid : sim::named_grids()) {
    EXPECT_FALSE(sim::grid_jobs(grid).empty()) << grid.name;
    if (grid.name == "default") continue;
    EXPECT_FALSE(grid.tables.empty()) << grid.name;
    const sim::NamedGrid smoke = smoke_copy(grid);
    std::vector<RunReport> reports;
    for (const SweepJob& job : sim::grid_jobs(smoke)) {
      const std::string key = job.spec.name + "@" + std::to_string(job.spec.n);
      auto it = runs.find(key);
      if (it == runs.end())
        it = runs.emplace(key, sim::run_scenario(job.spec, 0)).first;
      reports.push_back(it->second);
    }
    std::ostringstream os;
    EXPECT_NO_THROW(sim::print_grid_tables(os, smoke, reports)) << grid.name;
    EXPECT_NE(os.str().find("== E"), std::string::npos) << grid.name;
  }
}

TEST(NamedGrids, MalformedGridsFailLoudly) {
  const sim::GridTable good{
      "t", {{"e9_benor_small", {}, {}, {}, 1}}, {{"n", "n"}, {"r", "rounds"}}};
  auto grid_of = [](const sim::GridTable& t) {
    return sim::NamedGrid{"bad", "", {}, {t}};
  };
  auto prints = [&](const sim::GridTable& t) {
    const sim::NamedGrid g = grid_of(t);
    std::vector<RunReport> reports;
    for (const SweepJob& job : sim::grid_jobs(g))
      reports.push_back(sim::run_scenario(job.spec, job.seed_offset));
    std::ostringstream os;
    sim::print_grid_tables(os, g, reports);
  };
  EXPECT_NO_THROW(prints(good));
  // Each mutation breaks one rule grid_jobs checks.
  const std::vector<std::function<void(sim::GridTable&)>> expand_errors = {
      [](sim::GridTable& t) { t.rows[0].scenario = "no_such_scenario"; },
      [](sim::GridTable& t) { t.rows[0].overrides = {{"no_key", "1"}}; },
      [](sim::GridTable& t) { t.rows.clear(); },
      [](sim::GridTable& t) { t.columns.clear(); },
      [](sim::GridTable& t) { t.fits = {"no_such_column"}; }};
  for (const auto& mutate : expand_errors) {
    sim::GridTable t = good;
    mutate(t);
    EXPECT_THROW(sim::grid_jobs(grid_of(t)), std::logic_error);
  }
  // Columns that resolve to nothing fail when printed.
  sim::GridTable t = good;
  t.columns.push_back({"x", "no_such_extra"});
  EXPECT_THROW(prints(t), std::logic_error) << "unknown field";
  t = good;
  t.rows[0].scenario = "e4_cost";
  t.columns.push_back({"validity", "validity"});
  EXPECT_THROW(prints(t), std::logic_error) << "a2e reports no validity";
}

struct Shell {
  int status = -1;  ///< exit status; -1 unless the shell exited
  std::string out;  ///< the command's stdout
};

/// Run `cmd` through /bin/sh and collect its stdout and exit status.
Shell shell(const std::string& cmd) {
  Shell r;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, got);
  const int status = ::pclose(p);
  if (WIFEXITED(status)) r.status = WEXITSTATUS(status);
  return r;
}

TEST(NamedGrids, UnknownGridExitsTwoListingTheKnownOnes) {
  const Shell r = shell(BA_SWEEP_BIN " --grid nope 2>&1");
  EXPECT_EQ(r.status, 2);
  for (const sim::NamedGrid& grid : sim::named_grids())
    EXPECT_NE(r.out.find(" " + grid.name), std::string::npos) << r.out;
}

TEST(Shards, OneShardPrintsWhatThreeShardsPrint) {
  // --jobs 1 is one ba_run child like any other shard count, and the
  // merge restores job order, so the tables are byte-identical.
  const Shell one = shell(BA_SWEEP_BIN " --grid e7 --jobs 1 2>/dev/null");
  const Shell three = shell(BA_SWEEP_BIN " --grid e7 --jobs 3 2>/dev/null");
  EXPECT_EQ(one.status, 0);
  EXPECT_EQ(three.status, 0);
  EXPECT_FALSE(one.out.empty());
  EXPECT_EQ(one.out, three.out);
}

TEST(Shards, ShardCountsAboveTheChildCapAreUsageErrors) {
  // Refused while parsing the flags, before any child starts.
  EXPECT_EQ(shell(BA_SWEEP_BIN " --grid e7 --jobs 257 2>/dev/null").status, 2);
}

TEST(Shards, TimedOutShardsFailWithAReplayLineAndLeaveNoFile) {
  // e13's shards take well over a second; each is killed at the
  // deadline, and the sweep names the job it was on. Run in an empty
  // directory: nothing may be left in it on this exit path.
  std::string dir = ::testing::TempDir() + "ba_sweep_timeout_XXXXXX";
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const Shell r = shell("cd '" + dir + "' && " BA_SWEEP_BIN
                        " --grid e13 --jobs 2 --shard-timeout 1 2>&1");
  EXPECT_EQ(r.status, 1);
  EXPECT_NE(r.out.find("timed out and was killed"), std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("ba_sweep --replay 'seed_offset="), std::string::npos)
      << r.out;
  // rmdir succeeds only on an empty directory.
  EXPECT_EQ(::rmdir(dir.c_str()), 0) << "files left in " << dir;
}

TEST(LeastSquaresSlope, RecoversALogLogExponent) {
  std::vector<double> xs, ys;
  for (double x : {16.0, 64.0, 256.0, 1024.0}) {
    xs.push_back(std::log(x));
    ys.push_back(std::log(3.0 * std::pow(x, 1.5)));
  }
  EXPECT_NEAR(sim::least_squares_slope(xs, ys), 1.5, 1e-9);
  EXPECT_THROW(sim::least_squares_slope({1.0, 1.0}, {2.0, 3.0}),
               std::logic_error)
      << "needs two distinct x";
}

RunReport synthetic_report(const std::string& scenario, std::size_t n,
                           std::uint64_t seed, std::uint64_t max_bits,
                           int agree) {
  RunReport r;
  r.scenario = scenario;
  r.protocol = sim::ProtocolKind::kEverywhere;
  r.n = n;
  r.seed_offset = seed;
  r.workers = 1;
  r.decided_bit = 1;
  r.validity = 1;
  r.all_good_agree = agree;
  r.agreement_fraction = agree == 1 ? 1.0 : 0.9;
  r.rounds = 10;
  r.max_bits_good = max_bits;
  r.total_bits_good = max_bits * n;
  r.total_msgs_good = n;
  return r;
}

TEST(Aggregate, RatesAndMediansOverSeeds) {
  std::vector<RunReport> reports;
  reports.push_back(synthetic_report("s", 64, 0, 100, 1));
  reports.push_back(synthetic_report("s", 64, 1, 300, 1));
  reports.push_back(synthetic_report("s", 64, 2, 200, 0));
  reports.back().validity = -1;
  const sim::ProtocolLedger ledger = sim::aggregate_reports(reports);
  ASSERT_EQ(ledger.scenarios.size(), 1u);
  const sim::ScenarioAggregate& a = ledger.scenarios[0];
  EXPECT_EQ(a.runs, 3u);
  EXPECT_DOUBLE_EQ(a.agreement_rate, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(a.validity_rate, 1.0);  // over the 2 meaningful runs
  EXPECT_EQ(a.median_max_bits_good, 200u);
  EXPECT_EQ(a.max_max_bits_good, 300u);
  EXPECT_FALSE(ledger.fit.has_value()) << "one n cannot fit an exponent";
}

TEST(Aggregate, FitRecoversPlantedSqrtNLog3Curve) {
  // max_bits = 1000 · √n · log2(n)³ — the literal Õ(√n) shape. The
  // log3-corrected slope must come out ≈ 0.5 and the raw slope well
  // above it (the polylog dominates at these n).
  std::vector<RunReport> reports;
  for (std::size_t n : {16, 32, 64, 128, 256}) {
    const double lg = std::log2(static_cast<double>(n));
    const auto bits = static_cast<std::uint64_t>(
        1000.0 * std::sqrt(static_cast<double>(n)) * lg * lg * lg);
    reports.push_back(synthetic_report("curve", n, 0, bits, 1));
  }
  const sim::ProtocolLedger ledger = sim::aggregate_reports(reports);
  ASSERT_TRUE(ledger.fit.has_value());
  const sim::ExponentFit& fit = *ledger.fit;
  EXPECT_EQ(fit.family, "curve");
  EXPECT_EQ(fit.points.size(), 5u);
  EXPECT_NEAR(fit.log3_exponent, 0.5, 0.01);
  EXPECT_GT(fit.exponent, fit.log3_exponent);
  EXPECT_GT(fit.r2, 0.99);
  EXPECT_LE(fit.log3_exponent, sim::kLog3ExponentCeiling);
}

TEST(Aggregate, LedgerJsonHasTheGateFields) {
  std::vector<RunReport> reports;
  reports.push_back(synthetic_report("s", 64, 0, 100, 1));
  sim::ProtocolLedger ledger = sim::aggregate_reports(reports);
  ledger.grid = "default";
  std::ostringstream os;
  sim::write_ledger_json(os, ledger);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema\": \"ba.bench_protocol.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"agreement_rate\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"median_max_bits_good\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"fit\": null"), std::string::npos);
}

TEST(CheckJob, RegistrySpecSatisfiesEveryInvariant) {
  const SweepJob job{ScenarioRegistry::get("quickstart").with_n(16), 0};
  const auto fails = sim::check_job(job, nullptr);
  for (const auto& f : fails)
    ADD_FAILURE() << f.invariant << ": " << f.message << "\n  replay: "
                  << f.artifact;
}

TEST(Fuzz, BoundedSmokeSweepHoldsEveryInvariant) {
  // The CI job runs 1000+ specs; this bounded sweep keeps the invariant
  // machinery honest inside the tier-1 suite.
  std::ostringstream sink, err;
  const sim::FuzzSummary summary = sim::run_fuzz(42, 60, &sink, err);
  EXPECT_EQ(summary.specs, 60u);
  EXPECT_EQ(summary.failed_specs, 0u) << err.str();
  // One timed NDJSON line per spec reached the stream.
  std::size_t lines = 0;
  std::string line;
  std::istringstream in(sink.str());
  while (std::getline(in, line)) {
    ++lines;
    bool had_timing = false;
    const RunReport r = sim::parse_report_json(line, &had_timing);
    EXPECT_TRUE(had_timing);
    EXPECT_EQ(reemit(r, true), line);
  }
  EXPECT_EQ(lines, 60u);
}

TEST(Fuzz, PrefixReproducibility) {
  // Spec i is a pure function of (seed, i): re-running a shorter sweep
  // reproduces the same prefix — what makes any fuzz failure replayable
  // from just (seed, count).
  const Rng a(99);
  const Rng b(99);
  for (std::size_t i = 0; i < 8; ++i) {
    Rng sa = a.fork(i);
    Rng sb = b.fork(i);
    const ScenarioSpec sp1 = sim::random_spec(sa);
    const ScenarioSpec sp2 = sim::random_spec(sb);
    EXPECT_EQ(sp1, sp2) << i;
  }
}

}  // namespace
}  // namespace ba
