// The transport parity pin: a real multiprocess run over TCP must match
// the in-process simulator byte for byte at the same seed.
//
// launch_local (transport/launch.h) forks N copies of the actual ba_node
// binary (path baked in via BA_NODE_BIN — fork without exec is unsafe
// once the worker pool has threads), each owning a block of processor
// ids and exchanging wire frames on localhost, then runs the loopback
// oracle and compares fingerprints (which digest the full per-processor
// bit ledger), per-processor delivered-message transcript digests, and
// every semantic report field. Also pinned here: the loopback backend
// itself is a bit-for-bit no-op on the protocol (attaching it must not
// move the fingerprint).
#include <gtest/gtest.h>

#include <string>

#include "sim/protocol.h"
#include "transport/launch.h"
#include "transport/transport.h"

namespace ba {
namespace {

using sim::RunReport;
using sim::ScenarioRegistry;
using sim::ScenarioSpec;

transport::LaunchConfig base_config() {
  transport::LaunchConfig cfg;
  cfg.node_bin = BA_NODE_BIN;
  cfg.spec = ScenarioRegistry::get("quickstart").with_n(32);
  cfg.nodes = 4;
  cfg.timeout_ms = 120000;
  return cfg;
}

TEST(TransportParity, LoopbackBackendIsInvisibleToTheFingerprint) {
  const ScenarioSpec spec = ScenarioRegistry::get("quickstart").with_n(16);
  const RunReport bare = sim::run_scenario(spec, 1);
  LoopbackTransport loopback;
  TranscriptCapture capture;
  RunReport attached;
  {
    ScopedRunEnv env(RunEnv{&loopback, &capture});
    attached = sim::run_scenario(spec, 1);
  }
  EXPECT_EQ(attached.fingerprint, bare.fingerprint);
  EXPECT_EQ(attached.rounds, bare.rounds);
  EXPECT_EQ(attached.max_bits_good, bare.max_bits_good);
  // The backend metered real traffic and the capture saw every round.
  EXPECT_GT(loopback.stats().frames_sent, 0u);
  EXPECT_EQ(capture.rounds, bare.rounds);
  EXPECT_NE(capture.combined(), 0u);
}

TEST(TransportParity, FourNodesMatchTheOracleByteForByte) {
  const transport::LaunchConfig cfg = base_config();
  const transport::LaunchOutcome out = transport::launch_local(cfg);
  for (const std::string& err : out.errors) ADD_FAILURE() << err;
  ASSERT_EQ(out.nodes.size(), 4u);
  for (const transport::NodeOutcome& node : out.nodes) {
    EXPECT_EQ(node.exit_code, 0) << "node " << node.node_id << " stdout:\n"
                                 << node.output;
    ASSERT_TRUE(node.parsed) << node.output;
    // The pin, spelled out: decision with agreement, and byte-for-byte
    // ledger + transcript parity with the in-process simulator.
    EXPECT_EQ(node.report.decided_bit, out.oracle.decided_bit);
    EXPECT_EQ(node.report.all_good_agree, 1);
    EXPECT_EQ(node.report.fingerprint, out.oracle.fingerprint);
    EXPECT_EQ(node.transcript_digest, out.oracle_transcript);
  }
  // And the oracle itself is the plain loopback run of the same spec.
  const RunReport direct = sim::run_scenario(cfg.spec, cfg.seed_offset);
  EXPECT_EQ(out.oracle.fingerprint, direct.fingerprint);
}

TEST(TransportParity, SeedOffsetShiftsTheDistributedRunToo) {
  transport::LaunchConfig cfg = base_config();
  cfg.nodes = 2;
  cfg.spec = cfg.spec.with_n(16);
  cfg.seed_offset = 5;
  const transport::LaunchOutcome out = transport::launch_local(cfg);
  for (const std::string& err : out.errors) ADD_FAILURE() << err;
  const RunReport direct = sim::run_scenario(cfg.spec, 5);
  EXPECT_EQ(out.oracle.fingerprint, direct.fingerprint);
  ASSERT_FALSE(out.nodes.empty());
  EXPECT_EQ(out.nodes[0].report.fingerprint, direct.fingerprint);
}

TEST(TransportParity, MismatchedJobsFailAtHandshake) {
  // Two nodes launched with different specs must die at Hello (config
  // digest mismatch), not diverge rounds later. Drive ba_node directly:
  // node 0 runs n=16, node 1 runs n=24 on the same ports.
  const transport::LaunchConfig cfg = base_config();
  const std::uint64_t digest_a =
      transport::job_config_digest(cfg.spec.with_n(16), 0);
  const std::uint64_t digest_b =
      transport::job_config_digest(cfg.spec.with_n(24), 0);
  EXPECT_NE(digest_a, digest_b);
  EXPECT_EQ(digest_a, transport::job_config_digest(cfg.spec.with_n(16), 0));
  EXPECT_NE(transport::job_config_digest(cfg.spec.with_n(16), 0),
            transport::job_config_digest(cfg.spec.with_n(16), 1))
      << "seed offset must be part of the handshake digest";
}

}  // namespace
}  // namespace ba
