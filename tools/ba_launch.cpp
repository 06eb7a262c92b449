// ba_launch — spawn an N-process distributed BA run on localhost and diff
// it against the in-process simulator at the same seed.
//
//   ba_launch --scenario quickstart --nodes 8
//   ba_launch --scenario quickstart --nodes 4 --set n=64 --seed-offset 3
//   ba_launch --scenario quickstart --nodes 8 --require-agreement --json
//
// Runs `--nodes` copies of the sibling ba_node binary (at most
// kMaxChildren) through the child-process supervisor (common/
// subprocess.h: one stdout pipe each, one hard deadline, SIGKILL for
// stragglers), collects their RunReports and transcript digests, runs
// the loopback oracle in-process, and compares every semantic field plus
// both digests (transport/launch.h). Exit status: 0 on full parity (and,
// under --require-agreement, all nodes decided with everywhere-
// agreement); 1 otherwise, with each mismatch and a replayable job line
// on stderr; 2 on a usage error (a bad count, an unknown scenario or a
// bad --set).
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/subprocess.h"
#include "sim/scenario.h"
#include "transport/launch.h"

namespace {

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --scenario NAME [--nodes N] [--set key=value ...]\n"
      "          [--seed-offset S] [--port-base P] [--timeout-ms T]\n"
      "          [--node-bin PATH] [--json] [--timing]\n"
      "          [--require-agreement]\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  ba::transport::LaunchConfig cfg;
  std::string scenario;
  std::vector<std::string> overrides;
  bool json = false, require_agreement = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto number = [&](std::uint64_t max) -> std::uint64_t {
      const char* v = next();
      try {
        return ba::parse_unsigned(v, arg, max);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        std::exit(usage(argv[0]));
      }
    };
    if (arg == "--scenario") scenario = next();
    else if (arg == "--nodes") cfg.nodes = number(ba::kMaxChildren);
    else if (arg == "--set") overrides.emplace_back(next());
    else if (arg == "--seed-offset") cfg.seed_offset = number(UINT64_MAX);
    else if (arg == "--port-base")
      cfg.port_base = static_cast<std::uint16_t>(number(65535));
    else if (arg == "--timeout-ms")
      cfg.timeout_ms = static_cast<int>(number(INT_MAX));
    else if (arg == "--node-bin") cfg.node_bin = next();
    else if (arg == "--json") json = true;
    else if (arg == "--timing") cfg.timing = true;
    else if (arg == "--require-agreement") require_agreement = true;
    else return usage(argv[0]);
  }
  if (scenario.empty()) return usage(argv[0]);
  // A pinned port block [port_base, port_base + nodes) must fit in the
  // port range.
  if (cfg.port_base != 0 && cfg.port_base + cfg.nodes > 65536)
    return usage(argv[0]);
  if (cfg.node_bin.empty()) cfg.node_bin = ba::sibling_path("ba_node");
  try {
    cfg.spec = ba::sim::resolve_scenario(scenario, overrides);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return usage(argv[0]);
  }

  try {
    std::fprintf(stderr, "launching %zu ba_node processes, scenario %s, "
                         "n=%zu, seed_offset=%llu\n",
                 cfg.nodes, scenario.c_str(), cfg.spec.n,
                 static_cast<unsigned long long>(cfg.seed_offset));
    const ba::transport::LaunchOutcome out =
        ba::transport::launch_local(cfg);

    bool all_agree = true;
    for (const ba::transport::NodeOutcome& node : out.nodes) {
      if (json && node.parsed) {
        node.report.write_json(std::cout, cfg.timing);
        std::cout << '\n';
      }
      std::printf("node %u: exit=%d decided=%d all_good_agree=%d "
                  "rounds=%llu fp=%016llx tr=%016llx%s\n",
                  node.node_id, node.exit_code, node.report.decided_bit,
                  node.report.all_good_agree,
                  static_cast<unsigned long long>(node.report.rounds),
                  static_cast<unsigned long long>(node.report.fingerprint),
                  static_cast<unsigned long long>(node.transcript_digest),
                  node.timed_out ? " (timed out)" : "");
      if (!node.parsed || node.report.decided_bit < 0 ||
          node.report.all_good_agree != 1)
        all_agree = false;
    }
    std::printf("oracle: decided=%d all_good_agree=%d rounds=%llu "
                "fp=%016llx tr=%016llx\n",
                out.oracle.decided_bit, out.oracle.all_good_agree,
                static_cast<unsigned long long>(out.oracle.rounds),
                static_cast<unsigned long long>(out.oracle.fingerprint),
                static_cast<unsigned long long>(out.oracle_transcript));

    if (!out.parity()) {
      for (const std::string& err : out.errors)
        std::fprintf(stderr, "PARITY-FAIL: %s\n", err.c_str());
      return 1;
    }
    if (require_agreement && !all_agree) {
      std::fprintf(stderr, "AGREEMENT-FAIL: a node did not decide with "
                           "everywhere-agreement\nreplay: %s\n",
                   out.job_line.c_str());
      return 1;
    }
    std::printf("PARITY: %zu nodes match the in-process oracle "
                "(fingerprint + transcript)\n", out.nodes.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ba_launch: %s\n", e.what());
    return 1;
  }
}
