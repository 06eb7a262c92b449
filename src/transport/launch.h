// The multiprocess launcher: run N `ba_node` processes on localhost
// through the child-process supervisor (common/subprocess.h), collect
// their RunReports and transcript digests, run the in-process
// simulator at the same (spec, seed) as the differential oracle, and diff
// every semantic field plus both digests. This is the engine behind the
// `ba_launch` CLI and the transport_parity test.
//
// Comparison is field-wise, not raw-JSON: transport accounting extras
// (frames/bytes shipped) legitimately differ between the loopback oracle
// and each socket node, so the parity contract is pinned on what the
// protocol observed — fingerprint (which digests the full per-processor
// bit ledger), per-processor delivered-message transcript digest,
// decision, validity, agreement, rounds, and the good-processor ledger
// totals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/report.h"
#include "sim/scenario.h"

namespace ba::transport {

/// Digest of the run's replayable job line (spec plus seed_offset) —
/// carried in every Hello frame so nodes that were launched with
/// different jobs fail at handshake, not as a mysterious transcript
/// divergence rounds later.
std::uint64_t job_config_digest(const sim::ScenarioSpec& spec,
                                std::uint64_t seed_offset);

struct LaunchConfig {
  std::string node_bin;           ///< path to the ba_node executable
  std::size_t nodes = 8;          ///< OS processes to spawn, 2..kMaxChildren
  sim::ScenarioSpec spec;         ///< fully resolved (overrides applied)
  std::uint64_t seed_offset = 0;
  std::uint16_t port_base = 0;    ///< first of `nodes` ports; 0 = from pid
  int timeout_ms = 120000;        ///< whole-fleet wall deadline
  bool timing = false;            ///< node reports include timing fields
};

struct NodeOutcome {
  std::uint32_t node_id = 0;
  int exit_code = -1;   ///< -1 when killed (timeout) or lost to a signal
  bool timed_out = false;
  bool parsed = false;  ///< report JSON + transcript line both parsed
  sim::RunReport report;
  std::uint64_t transcript_digest = 0;
  std::string output;   ///< raw child stdout, kept for diagnostics
};

struct LaunchOutcome {
  std::vector<NodeOutcome> nodes;
  sim::RunReport oracle;  ///< the in-process loopback run, same seed
  std::uint64_t oracle_transcript = 0;
  std::string job_line;   ///< replayable artifact the nodes executed
  std::vector<std::string> errors;  ///< empty = full parity
  bool parity() const { return errors.empty(); }
};

/// Run `cfg.nodes` ba_node processes on localhost ports
/// [port_base, port_base + nodes) through the child-process supervisor
/// (common/subprocess.h): one stdout pipe each, drained under one hard
/// deadline, with stragglers SIGKILLed and reported, never hung on.
/// Parse each node's report, then run the in-process oracle and compare.
/// The oracle runs after every node has exited. Throws only on
/// launcher-side failures (pipe/fork, more than kMaxChildren nodes);
/// node failures and mismatches land in `errors`.
LaunchOutcome launch_local(const LaunchConfig& cfg);

}  // namespace ba::transport
