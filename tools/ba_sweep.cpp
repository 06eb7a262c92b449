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
// job list (sim/sweep.h), splits it round-robin across `--jobs` child
// processes (fork + exec of the sibling `ba_run --jobs-file`, stdout
// redirected to a shard file; `--jobs 1` runs in-process), merges the
// shard NDJSON streams back into job order, and aggregates them into the
// BENCH_protocol.json ledger — including the least-squares fitted
// exponent of max-bits vs n for the everywhere-BA family, gated at
// kLog3ExponentCeiling (the Õ(√n) story). A table grid (e1…e13, one per
// paper claim) prints its tables to stdout instead, and writes the
// ledger only when --ledger is given.
//
// Fuzz mode generates `count` random valid specs, drives each through
// every cross-cutting invariant (sim/sweep.h check_job), and prints any
// failure with its replayable key=value artifact. --replay re-checks one
// such artifact line. Exit status 1 on any invariant failure.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <climits>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/parse.h"
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

/// Absolute path of the sibling ba_run binary (same directory as this
/// executable, resolved through /proc/self/exe).
std::string sibling_ba_run() {
  char buf[PATH_MAX];
  const ssize_t len = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len <= 0) return "ba_run";
  buf[len] = '\0';
  std::string path(buf);
  const std::size_t slash = path.rfind('/');
  return slash == std::string::npos ? "ba_run"
                                    : path.substr(0, slash + 1) + "ba_run";
}

/// Run one shard as a child process: write its job lines to
/// `<prefix>.jobs`, fork, point stdout at `<prefix>.ndjson`, exec
/// `ba_run --jobs-file`. Returns the child pid (exits on spawn failure).
pid_t spawn_shard(const std::string& ba_run, const std::string& prefix,
                  const std::vector<const SweepJob*>& shard) {
  const std::string jobs_path = prefix + ".jobs";
  const std::string out_path = prefix + ".ndjson";
  {
    std::ofstream jobs(jobs_path);
    for (const SweepJob* job : shard)
      jobs << ba::sim::format_job_line(*job) << '\n';
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr || ::dup2(::fileno(out), STDOUT_FILENO) < 0) {
      std::perror(out_path.c_str());
      std::_Exit(127);
    }
    ::execl(ba_run.c_str(), ba_run.c_str(), "--jobs-file", jobs_path.c_str(),
            static_cast<char*>(nullptr));
    std::perror(ba_run.c_str());
    std::_Exit(127);
  }
  return pid;
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

  // One NDJSON line per job, in job order.
  std::vector<std::string> lines;
  lines.reserve(jobs.size());
  if (jobs_procs == 1) {
    // In-process fallback: same artifact path (format -> parse -> run)
    // as the sharded mode, so both modes exercise the job-line grammar.
    for (const SweepJob& job : jobs) {
      const SweepJob parsed =
          ba::sim::parse_job_line(ba::sim::format_job_line(job));
      const RunReport r =
          ba::sim::run_scenario(parsed.spec, parsed.seed_offset);
      std::ostringstream os;
      r.write_json(os, /*include_timing=*/true);
      lines.push_back(os.str());
    }
  } else {
    // Round-robin split; the merge below interleaves the shard streams
    // in the same round-robin order, restoring the original job order.
    const std::string ba_run = sibling_ba_run();
    const std::string prefix =
        out_path.empty() ? std::string("ba_sweep_tmp") : out_path;
    std::vector<std::vector<const SweepJob*>> shards(jobs_procs);
    for (std::size_t i = 0; i < jobs.size(); ++i)
      shards[i % jobs_procs].push_back(&jobs[i]);
    std::vector<pid_t> pids;
    std::vector<std::string> prefixes;
    for (std::size_t s = 0; s < jobs_procs; ++s) {
      prefixes.push_back(prefix + ".shard" + std::to_string(s));
      pids.push_back(spawn_shard(ba_run, prefixes.back(), shards[s]));
    }
    // Reap with a hard deadline instead of a blocking waitpid: a shard
    // that wedges (or dies) gets SIGKILLed and reported — the merge never
    // hangs on a child. The failure artifact is the first job line the
    // shard produced no report for, replayable via `ba_sweep --replay`.
    bool child_failed = false;
    {
      using Clock = std::chrono::steady_clock;
      const auto deadline =
          Clock::now() + std::chrono::seconds(shard_timeout_s);
      std::vector<int> exit_codes(jobs_procs, -1);
      std::vector<bool> done(jobs_procs, false), killed(jobs_procs, false);
      std::size_t live = jobs_procs;
      while (live > 0) {
        for (std::size_t s = 0; s < jobs_procs; ++s) {
          if (done[s]) continue;
          int status = 0;
          const pid_t r = ::waitpid(pids[s], &status, WNOHANG);
          if (r == pids[s]) {
            exit_codes[s] = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            done[s] = true;
            --live;
          } else if (r < 0) {  // lost to the reaper: treat as failed
            done[s] = true;
            --live;
          }
        }
        if (live == 0) break;
        if (Clock::now() >= deadline) {
          for (std::size_t s = 0; s < jobs_procs; ++s)
            if (!done[s] && !killed[s]) {
              ::kill(pids[s], SIGKILL);
              killed[s] = true;
            }
          // One more WNOHANG sweep will reap the kills; keep looping.
        }
        ::usleep(50000);
      }
      for (std::size_t s = 0; s < jobs_procs; ++s)
        if (killed[s] || exit_codes[s] != 0) {
          std::fprintf(stderr, "shard %zu (pid %d) %s\n", s,
                       static_cast<int>(pids[s]),
                       killed[s] ? "timed out and was killed"
                                 : "exited nonzero");
          child_failed = true;
        }
    }
    std::vector<std::vector<std::string>> shard_lines(jobs_procs);
    for (std::size_t s = 0; s < jobs_procs; ++s) {
      std::ifstream in(prefixes[s] + ".ndjson");
      std::string line;
      while (std::getline(in, line))
        if (!line.empty()) shard_lines[s].push_back(line);
      if (shard_lines[s].size() != shards[s].size()) {
        std::fprintf(stderr, "shard %zu: %zu reports for %zu jobs\n", s,
                     shard_lines[s].size(), shards[s].size());
        // The job the shard was on (first without a report) is the
        // replayable failure artifact.
        if (shard_lines[s].size() < shards[s].size())
          std::fprintf(stderr, "shard %zu failed at job; replay with:\n"
                               "  ba_sweep --replay '%s'\n",
                       s,
                       ba::sim::format_job_line(
                           *shards[s][shard_lines[s].size()])
                           .c_str());
        child_failed = true;
      }
    }
    if (child_failed) return 1;
    for (std::size_t i = 0; i < jobs.size(); ++i)
      lines.push_back(std::move(shard_lines[i % jobs_procs][i / jobs_procs]));
    for (const std::string& p : prefixes) {
      std::remove((p + ".jobs").c_str());
      std::remove((p + ".ndjson").c_str());
    }
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    for (const std::string& line : lines) out << line << '\n';
  }

  // Aggregate. Parsing the NDJSON (rather than keeping RunReport objects)
  // is deliberate: the ledger is a pure function of the report stream, so
  // in-process and sharded runs cannot drift.
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
    else if (arg == "--jobs") jobs_procs = number(next(), SIZE_MAX);
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

  if (!grid_name.empty() || print_jobs)
    return run_grid(grid_name.empty() ? "default" : grid_name, jobs_procs,
                    out_path, ledger_path, print_jobs, shard_timeout_s);
  return usage(argv[0]);
}
