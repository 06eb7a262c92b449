// ba_sweep — the sweep driver: scenario grids sharded across child
// processes, the protocol-level perf ledger, and the spec fuzzer.
//
//   ba_sweep --grid default --jobs 2
//            --out runs.ndjson --ledger BENCH_protocol.json
//   ba_sweep --grid e4 --jobs 4              # an E-series table grid
//   ba_sweep --print-jobs --grid default     # job lines, no runs
//   ba_sweep --fuzz 1000 [--seed S | --seed-from-ci] [--ndjson path]
//   ba_sweep --replay 'seed_offset=0 name=... protocol=...'
//
// Grid mode expands (scenario × n × workers × seed-range) axes into a
// job list (sim/sweep.h), splits it round-robin across `--jobs` shards
// (at most kMaxChildren; `--jobs 1` is one shard like any other), runs
// each as a sibling `ba_run --jobs-file /dev/stdin` child through the
// child-process supervisor (common/subprocess.h: job lines in on stdin,
// NDJSON out on stdout, one `--shard-timeout` deadline, no file on
// disk), merges the shard streams back into job order, and aggregates
// them into the BENCH_protocol.json ledger — including the least-squares
// fitted exponent of max-bits vs n for the everywhere-BA family, gated
// at kLog3ExponentCeiling (the Õ(√n) story). A table grid (e1…e13, one per
// paper claim) prints its tables to stdout instead, and writes the
// ledger only when --ledger is given.
//
// Fuzz mode generates `count` random valid specs, drives each through
// every cross-cutting invariant (sim/sweep.h check_job), and prints any
// failure with its replayable key=value artifact. --replay re-checks one
// such artifact line. Exit status 1 on any invariant failure.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/subprocess.h"
#include "sim/protocol.h"
#include "sim/sweep.h"

namespace {

using ba::sim::RunReport;
using ba::sim::SweepJob;

/// --shard-timeout ceiling (seconds): keeps the shard deadline
/// (steady_clock::now() + timeout) inside the clock's range.
constexpr std::uint64_t kMaxShardTimeout = 1000000000;

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --grid NAME [--jobs N] [--out runs.ndjson]\n"
      "          [--ledger BENCH_protocol.json] [--shard-timeout SECONDS]\n"
      "       %s --print-jobs [--grid NAME]\n"
      "       %s --fuzz COUNT [--seed S | --seed-from-ci] [--ndjson path]\n"
      "       %s --replay 'seed_offset=K key=value ...'\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

int run_grid(const std::string& grid_name, std::size_t jobs_procs,
             const std::string& out_path, const std::string& ledger_path,
             bool print_jobs, long shard_timeout_s) {
  const ba::sim::NamedGrid* grid = ba::sim::find_grid(grid_name);
  if (grid == nullptr) {
    std::fprintf(stderr, "unknown grid: %s; known grids:\n",
                 grid_name.c_str());
    for (const ba::sim::NamedGrid& g : ba::sim::named_grids())
      std::fprintf(stderr, "  %-8s %s\n", g.name.c_str(), g.claim.c_str());
    return 2;
  }
  const std::vector<SweepJob> jobs = ba::sim::grid_jobs(*grid);
  if (print_jobs) {
    for (const SweepJob& job : jobs)
      std::cout << ba::sim::format_job_line(job) << '\n';
    return 0;
  }
  if (jobs_procs == 0) jobs_procs = 1;
  if (jobs_procs > jobs.size()) jobs_procs = jobs.size();
  std::fprintf(stderr, "grid %s: %zu jobs across %zu process%s\n",
               grid_name.c_str(), jobs.size(), jobs_procs,
               jobs_procs == 1 ? "" : "es");

  // Round-robin split into shards, each a sibling `ba_run --jobs-file`
  // child reading its job lines on stdin and writing NDJSON reports to
  // stdout: job i is line i / P of shard i % P.
  std::vector<ba::ChildCommand> shards(
      jobs_procs,
      {{ba::sibling_path("ba_run"), "--jobs-file", "/dev/stdin"}, ""});
  for (std::size_t i = 0; i < jobs.size(); ++i)
    shards[i % jobs_procs].input += ba::sim::format_job_line(jobs[i]) + '\n';
  // One deadline for every shard: a shard that wedges (or dies) is
  // SIGKILLed and reported, and the merge never hangs on it. The failure
  // artifact is the first job line the shard produced no report for,
  // replayable via `ba_sweep --replay`.
  const std::vector<ba::ChildResult> results =
      ba::run_children(shards, std::chrono::seconds(shard_timeout_s));
  bool child_failed = false;
  std::vector<std::vector<std::string>> shard_lines(jobs_procs);
  for (std::size_t s = 0; s < jobs_procs; ++s) {
    const ba::ChildResult& r = results[s];
    if (r.timed_out || r.exit_code != 0) {
      std::fprintf(stderr, "shard %zu %s (exit code %d)\n", s,
                   r.timed_out ? "timed out and was killed" : "failed",
                   r.exit_code);
      child_failed = true;
    }
    std::istringstream in(r.output);
    std::string line;
    while (std::getline(in, line))
      if (!line.empty()) shard_lines[s].push_back(line);
    const std::size_t got = shard_lines[s].size();
    const std::size_t want = (jobs.size() - s + jobs_procs - 1) / jobs_procs;
    if (got != want) {
      std::fprintf(stderr, "shard %zu: %zu reports for %zu jobs\n", s, got,
                   want);
      if (got < want)
        std::fprintf(
            stderr, "shard %zu failed at job; replay with:\n"
                    "  ba_sweep --replay '%s'\n",
            s, ba::sim::format_job_line(jobs[s + got * jobs_procs]).c_str());
      child_failed = true;
    }
  }
  if (child_failed) return 1;

  // One NDJSON line per job, in job order.
  std::vector<std::string> lines;
  lines.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i)
    lines.push_back(std::move(shard_lines[i % jobs_procs][i / jobs_procs]));

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    for (const std::string& line : lines) out << line << '\n';
  }

  // Aggregate. Parsing the NDJSON (rather than keeping RunReport objects)
  // is deliberate: the ledger is a pure function of the report stream,
  // whatever the shard count.
  std::vector<RunReport> reports;
  reports.reserve(lines.size());
  for (const std::string& line : lines)
    reports.push_back(ba::sim::parse_report_json(line));
  if (!grid->tables.empty()) {
    ba::sim::print_grid_tables(std::cout, *grid, reports);
    if (ledger_path.empty()) return 0;
  }
  ba::sim::ProtocolLedger ledger = ba::sim::aggregate_reports(reports);
  ledger.grid = grid_name;
  if (!ledger_path.empty()) {
    std::ofstream out(ledger_path);
    ba::sim::write_ledger_json(out, ledger);
  } else {
    ba::sim::write_ledger_json(std::cout, ledger);
  }

  if (ledger.fit.has_value()) {
    const ba::sim::ExponentFit& fit = *ledger.fit;
    std::fprintf(stderr,
                 "fit %s: exponent %.3f, log3 exponent %.3f (ceiling %.2f), "
                 "r2 %.3f over %zu points\n",
                 fit.family.c_str(), fit.exponent, fit.log3_exponent,
                 ba::sim::kLog3ExponentCeiling, fit.r2, fit.points.size());
    if (fit.log3_exponent > ba::sim::kLog3ExponentCeiling) {
      std::fprintf(stderr,
                   "FAIL: fitted log3 exponent exceeds the O~(sqrt n) "
                   "ceiling\n");
      return 1;
    }
  } else {
    std::fprintf(stderr, "no exponent fit (need an everywhere scenario "
                         "with 3+ distinct n)\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string grid_name, out_path, ledger_path, ndjson_path, replay_line;
  std::size_t jobs_procs = 2;
  long shard_timeout_s = 3600;
  std::size_t fuzz_count = 0;
  std::uint64_t fuzz_seed = 1;
  bool have_fuzz = false, print_jobs = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](const char* v, std::uint64_t max) -> std::uint64_t {
      try {
        return ba::parse_unsigned(v, arg, max);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(usage(argv[0]));
      }
    };
    if (arg == "--grid") grid_name = next();
    else if (arg == "--jobs") jobs_procs = number(next(), ba::kMaxChildren);
    else if (arg == "--shard-timeout")
      shard_timeout_s = static_cast<long>(number(next(), kMaxShardTimeout));
    else if (arg == "--out") out_path = next();
    else if (arg == "--ledger") ledger_path = next();
    else if (arg == "--print-jobs") print_jobs = true;
    else if (arg == "--fuzz") {
      have_fuzz = true;
      fuzz_count = number(next(), SIZE_MAX);
    } else if (arg == "--seed") fuzz_seed = number(next(), UINT64_MAX);
    else if (arg == "--seed-from-ci") {
      // Deterministic per CI run but varying across runs, so the corpus
      // moves while every failure stays replayable via --seed.
      const char* run = std::getenv("GITHUB_RUN_NUMBER");
      fuzz_seed = run != nullptr ? number(run, UINT64_MAX) : 1;
    } else if (arg == "--ndjson") ndjson_path = next();
    else if (arg == "--replay") replay_line = next();
    else return usage(argv[0]);
  }

  if (!replay_line.empty()) {
    try {
      const SweepJob job = ba::sim::parse_job_line(replay_line);
      const std::vector<ba::sim::FuzzFailure> fails =
          ba::sim::check_job(job, nullptr);
      const RunReport r = ba::sim::run_scenario(job.spec, job.seed_offset);
      r.write_json(std::cout, /*include_timing=*/true);
      std::cout << '\n';
      for (const auto& f : fails)
        std::fprintf(stderr, "FUZZ-FAIL[%s] %s\n", f.invariant.c_str(),
                     f.message.c_str());
      return fails.empty() ? 0 : 1;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "replay failed: %s\n", e.what());
      return 1;
    }
  }

  if (have_fuzz) {
    if (fuzz_count == 0) return usage(argv[0]);
    std::ofstream ndjson;
    if (!ndjson_path.empty()) {
      ndjson.open(ndjson_path);
      if (!ndjson) {
        std::fprintf(stderr, "cannot open %s\n", ndjson_path.c_str());
        return 1;
      }
    }
    std::fprintf(stderr, "fuzz: %zu specs, seed %llu\n", fuzz_count,
                 static_cast<unsigned long long>(fuzz_seed));
    const ba::sim::FuzzSummary summary = ba::sim::run_fuzz(
        fuzz_seed, fuzz_count, ndjson_path.empty() ? nullptr : &ndjson,
        std::cerr);
    std::fprintf(stderr, "fuzz: %zu/%zu specs passed, %zu failures\n",
                 summary.specs - summary.failed_specs, summary.specs,
                 summary.failures.size());
    return summary.failures.empty() ? 0 : 1;
  }

  if (!grid_name.empty() || print_jobs) {
    try {
      return run_grid(grid_name.empty() ? "default" : grid_name, jobs_procs,
                      out_path, ledger_path, print_jobs, shard_timeout_s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ba_sweep: %s\n", e.what());
      return 1;
    }
  }
  return usage(argv[0]);
}
