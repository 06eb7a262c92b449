// ba_run — the scenario CLI: one binary that executes any registered
// scenario (sim/scenario.h) and emits the unified RunReport.
//
//   ba_run --list                 # registered scenario names (smoke set)
//   ba_run --list --heavy         # include heavy configs (e1_n16384)
//   ba_run --describe <name>      # full spec as key=value lines
//   ba_run --scenario e3_aeba --seeds 5 --workers 8 --json
//   ba_run --scenario quickstart --set n=1024 --set corrupt_fraction=0.2
//   ba_run --all [--json]         # sweep every non-heavy scenario
//
// `--seeds N` runs seed offsets 0..N-1 (the benches' `base + s` sweep).
// `--json` emits one JSON object per run (NDJSON); the default is a
// table. `--no-timing` omits wall_ms for byte-stable output (the golden
// form). BA_THREADS sets the ambient pool size when --workers does not.
// A count that is not an unsigned decimal (or a worker count above
// Pool::kMaxThreads), an unknown scenario or a bad `--set` exits 2 with
// the usage line.
//
//   ba_run --jobs-file <path>     # sweep-shard worker mode
//
// reads sweep job lines ("seed_offset=K key=value ..."; sim/sweep.h) and
// emits one NDJSON report per job — the child-process half of ba_sweep's
// sharding (each shard reads its lines as `--jobs-file /dev/stdin`), and
// the manual way to replay any job-line artifact.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/pool.h"
#include "common/table.h"
#include "sim/protocol.h"
#include "sim/scenario.h"
#include "sim/sweep.h"

namespace {

using ba::sim::RunReport;
using ba::sim::ScenarioRegistry;
using ba::sim::ScenarioSpec;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --list [--heavy]\n"
      "       %s --describe <scenario>\n"
      "       %s (--scenario <name> | --all) [--seeds N] [--workers K]\n"
      "          [--set key=value ...] [--json] [--no-timing]\n"
      "       %s --jobs-file <path> [--no-timing]\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

void print_table(const std::vector<RunReport>& reports) {
  ba::Table t("scenario runs");
  t.header({"scenario", "protocol", "n", "seed", "workers", "decided",
            "validity", "agree_frac", "rounds", "max_bits/good",
            "total_bits/good", "wall_ms", "peak_rss_kb"});
  for (const auto& r : reports) {
    t.row({r.scenario, std::string(ba::sim::to_string(r.protocol)),
           static_cast<std::int64_t>(r.n),
           static_cast<std::int64_t>(r.seed_offset),
           static_cast<std::int64_t>(r.workers),
           static_cast<std::int64_t>(r.decided_bit),
           static_cast<std::int64_t>(r.validity), r.agreement_fraction,
           static_cast<std::int64_t>(r.rounds),
           static_cast<std::int64_t>(r.max_bits_good),
           static_cast<std::int64_t>(r.total_bits_good), r.wall_ms,
           static_cast<std::int64_t>(r.peak_rss_kb)});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  bool list = false, heavy = false, all = false, json = false;
  bool timing = true;
  std::string scenario_name, describe_name, jobs_file;
  std::size_t seeds = 1, workers = 0;
  std::vector<std::string> overrides;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](std::uint64_t max) -> std::size_t {
      const char* v = next();
      try {
        return ba::parse_unsigned(v, arg, max);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(usage(argv[0]));
      }
    };
    if (arg == "--list") list = true;
    else if (arg == "--heavy") heavy = true;
    else if (arg == "--all") all = true;
    else if (arg == "--json") json = true;
    else if (arg == "--no-timing") timing = false;
    else if (arg == "--scenario") scenario_name = next();
    else if (arg == "--describe") describe_name = next();
    else if (arg == "--jobs-file") jobs_file = next();
    else if (arg == "--seeds") seeds = count(SIZE_MAX);
    else if (arg == "--workers") workers = count(ba::Pool::kMaxThreads);
    else if (arg == "--set") overrides.emplace_back(next());
    else return usage(argv[0]);
  }

  if (list) {
    for (const auto& name : ScenarioRegistry::names(heavy))
      std::printf("%s\n", name.c_str());
    return 0;
  }
  if (!describe_name.empty()) {
    const ScenarioSpec* spec = ScenarioRegistry::find(describe_name);
    if (spec == nullptr) {
      std::fprintf(stderr, "unknown scenario: %s\n", describe_name.c_str());
      return usage(argv[0]);
    }
    for (const auto& [key, value] : spec->to_kv())
      std::printf("%s=%s\n", key.c_str(), value.c_str());
    return 0;
  }
  if (!jobs_file.empty()) {
    // Shard-worker mode: one NDJSON report per job line, in file order.
    // Blank lines and '#' comments are skipped so hand-edited replay
    // files stay convenient.
    std::ifstream in(jobs_file);
    if (!in) {
      std::fprintf(stderr, "cannot open jobs file: %s\n", jobs_file.c_str());
      return 1;
    }
    std::string line;
    std::size_t lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      if (line.empty() || line[0] == '#') continue;
      try {
        const ba::sim::SweepJob job = ba::sim::parse_job_line(line);
        const RunReport report =
            ba::sim::run_scenario(job.spec, job.seed_offset);
        report.write_json(std::cout, timing);
        // Flushed per job, so a shard killed at its deadline has shown
        // every finished report and ba_sweep names the job it was on.
        std::cout << '\n' << std::flush;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s:%zu: %s\n", jobs_file.c_str(), lineno,
                     e.what());
        return 1;
      }
    }
    return 0;
  }
  if (scenario_name.empty() && !all) return usage(argv[0]);
  if (seeds == 0) seeds = 1;
  std::vector<ScenarioSpec> specs;
  try {
    // workers == 0 keeps the BA_THREADS / hardware default, which this
    // reads and checks.
    ba::Pool::set_threads(workers);
    const std::vector<std::string> names =
        all ? ScenarioRegistry::names(heavy)
            : std::vector<std::string>{scenario_name};
    for (const std::string& name : names)
      specs.push_back(ba::sim::resolve_scenario(name, overrides));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage(argv[0]);
  }

  std::vector<RunReport> reports;  // table mode only — a long --json
                                   // sweep should not retain run details
  for (const auto& spec : specs) {
    for (std::size_t s = 0; s < seeds; ++s) {
      RunReport report;
      try {
        report = ba::sim::run_scenario(spec, s);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "scenario %s failed: %s\n", spec.name.c_str(),
                     e.what());
        return 1;
      }
      if (json) {
        report.write_json(std::cout, timing);
        std::cout << '\n';
      } else {
        reports.push_back(std::move(report));
      }
    }
  }
  if (!json) print_table(reports);
  return 0;
}
