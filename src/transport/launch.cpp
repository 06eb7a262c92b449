#include "transport/launch.h"

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <sstream>

#include "common/check.h"
#include "common/rng.h"
#include "common/subprocess.h"
#include "sim/protocol.h"
#include "sim/sweep.h"
#include "transport/transport.h"

namespace ba::transport {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// Parse ba_node's second stdout line ("transcript_digest=<hex16> ...").
bool parse_transcript_line(const std::string& line, std::uint64_t* digest) {
  static const char kKey[] = "transcript_digest=";
  if (line.compare(0, sizeof kKey - 1, kKey) != 0) return false;
  unsigned long long v = 0;
  if (std::sscanf(line.c_str() + sizeof kKey - 1, "%llx", &v) != 1)
    return false;
  *digest = v;
  return true;
}

/// Fill outcome.report / transcript_digest from a node's raw stdout:
/// one JSON report line plus one transcript_digest key=value line.
void parse_node_output(NodeOutcome& node) {
  bool have_report = false, have_digest = false;
  std::istringstream in(node.output);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line[0] == '{') {
      try {
        node.report = sim::parse_report_json(line);
        have_report = true;
      } catch (const std::exception&) {
        // fall through: unparsable report leaves `parsed` false
      }
    } else {
      have_digest |= parse_transcript_line(line, &node.transcript_digest);
    }
  }
  node.parsed = have_report && have_digest;
}

struct FieldCheck {
  const char* name;
  std::uint64_t got, want;
};

/// Field-wise parity check of one node's report against the oracle.
void compare_node(const NodeOutcome& node, const sim::RunReport& oracle,
                  std::uint64_t oracle_transcript,
                  std::vector<std::string>& errors) {
  const std::string who = "node " + std::to_string(node.node_id) + ": ";
  if (node.timed_out) {
    errors.push_back(who + "killed at the launch deadline");
    return;
  }
  if (node.exit_code != 0) {
    errors.push_back(who + "exit code " + std::to_string(node.exit_code));
    return;
  }
  if (!node.parsed) {
    errors.push_back(who + "stdout is not a report + transcript line pair");
    return;
  }
  const sim::RunReport& r = node.report;
  const FieldCheck checks[] = {
      {"fingerprint", r.fingerprint, oracle.fingerprint},
      {"transcript_digest", node.transcript_digest, oracle_transcript},
      {"decided_bit", static_cast<std::uint64_t>(r.decided_bit),
       static_cast<std::uint64_t>(oracle.decided_bit)},
      {"validity", static_cast<std::uint64_t>(r.validity),
       static_cast<std::uint64_t>(oracle.validity)},
      {"all_good_agree", static_cast<std::uint64_t>(r.all_good_agree),
       static_cast<std::uint64_t>(oracle.all_good_agree)},
      {"rounds", r.rounds, oracle.rounds},
      {"corrupt_count", r.corrupt_count, oracle.corrupt_count},
      {"max_bits_good", r.max_bits_good, oracle.max_bits_good},
      {"total_bits_good", r.total_bits_good, oracle.total_bits_good},
      {"total_msgs_good", r.total_msgs_good, oracle.total_msgs_good},
  };
  for (const FieldCheck& c : checks)
    if (c.got != c.want)
      errors.push_back(who + c.name + " " + hex64(c.got) + " != oracle " +
                       hex64(c.want));
  if (r.agreement_fraction != oracle.agreement_fraction)
    errors.push_back(who + "agreement_fraction diverges from the oracle");
}

}  // namespace

std::uint64_t job_config_digest(const sim::ScenarioSpec& spec,
                                std::uint64_t seed_offset) {
  const std::string line =
      sim::format_job_line(sim::SweepJob{spec, seed_offset});
  Fnv1a d;
  for (char c : line) d.mix(static_cast<unsigned char>(c));
  return d.h;
}

LaunchOutcome launch_local(const LaunchConfig& cfg) {
  BA_REQUIRE(!cfg.node_bin.empty(), "launch_local: node_bin is required");
  BA_REQUIRE(cfg.nodes >= 2, "launch_local: need at least 2 nodes");
  BA_REQUIRE(cfg.spec.n >= cfg.nodes,
             "launch_local: every node needs at least one processor "
             "(n >= nodes)");

  LaunchOutcome out;
  out.job_line = sim::format_job_line(sim::SweepJob{cfg.spec, cfg.seed_offset});
  out.nodes.resize(cfg.nodes);

  // Port block when the caller didn't pin one: derived from the pid so
  // concurrent launches on one host don't collide, and kept below the
  // default Linux ephemeral range (32768-60999). Inside that range the
  // kernel may hand a node's port to a connecting socket — the fleet's
  // own connections, or earlier instances' ones still in TIME_WAIT —
  // and the node's bind fails with EADDRINUSE.
  std::uint16_t port_base = cfg.port_base;
  if (port_base == 0)
    port_base = static_cast<std::uint16_t>(
        20000 + (static_cast<std::uint32_t>(::getpid()) * 131u) % 12000u);

  // One ba_node per node id, all under the fleet-wide deadline: a node
  // still running at the deadline is SIGKILLed and reported, never hung
  // on. Its partial output is kept for diagnostics.
  std::vector<ChildCommand> fleet(cfg.nodes);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    fleet[i].argv = {cfg.node_bin,
                     "--id", std::to_string(i),
                     "--nodes", std::to_string(cfg.nodes),
                     "--port-base", std::to_string(port_base),
                     "--job", out.job_line,
                     "--timeout-ms", std::to_string(cfg.timeout_ms)};
    if (cfg.timing) fleet[i].argv.push_back("--timing");
  }
  std::vector<ChildResult> ran =
      run_children(fleet, std::chrono::milliseconds(cfg.timeout_ms));
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    NodeOutcome& node = out.nodes[i];
    node.node_id = static_cast<std::uint32_t>(i);
    node.exit_code = ran[i].exit_code;
    node.timed_out = ran[i].timed_out;
    node.output = std::move(ran[i].output);
    parse_node_output(node);
  }

  // The differential oracle: the same (spec, seed) through the in-process
  // loopback backend. Transport extras are excluded from the fingerprint,
  // so backend choice cannot move any compared field.
  LoopbackTransport loopback;
  TranscriptCapture capture;
  {
    ScopedRunEnv env(RunEnv{&loopback, &capture});
    out.oracle = sim::run_scenario(cfg.spec, cfg.seed_offset);
  }
  out.oracle_transcript = capture.combined();

  for (const NodeOutcome& node : out.nodes)
    compare_node(node, out.oracle, out.oracle_transcript, out.errors);
  if (!out.errors.empty())
    out.errors.push_back("replay: " + out.job_line);
  return out;
}

}  // namespace ba::transport
