#include "transport/transport.h"

#include "common/check.h"
#include "transport/wire.h"

namespace ba {

namespace {

// The ambient environment is driver-side state: installed before a run on
// the thread that owns the Network, read once when run_scenario
// constructs it. Plain statics (no TLS) keep the contract honest — two
// concurrent ScopedRunEnvs in one process is a bug, not a race to paper
// over.
RunEnv g_env;
bool g_env_installed = false;

}  // namespace

ScopedRunEnv::ScopedRunEnv(const RunEnv& env) {
  BA_REQUIRE(!g_env_installed,
             "ScopedRunEnv does not nest: one run environment at a time");
  g_env = env;
  g_env_installed = true;
}

ScopedRunEnv::~ScopedRunEnv() {
  g_env = RunEnv{};
  g_env_installed = false;
}

const RunEnv* current_run_env() {
  return g_env_installed ? &g_env : nullptr;
}

void LoopbackTransport::on_attach(std::size_t n) {
  BA_REQUIRE(n > 0, "loopback transport needs at least one processor");
  n_ = n;
  stats_ = TransportStats{};
}

void LoopbackTransport::on_send(const Envelope& e) {
  // Delivery stays in Network; meter the frame a fully
  // distributed run would have exchanged for this envelope (both
  // directions — every envelope has a sender node and a receiver node).
  const std::uint64_t bytes =
      transport::envelope_frame_bytes(e.payload.words.size());
  stats_.frames_sent += 1;
  stats_.frames_recv += 1;
  stats_.bytes_sent += bytes;
  stats_.bytes_recv += bytes;
}

void LoopbackTransport::sync_round(
    std::uint64_t round, std::vector<std::vector<Envelope>>& staging) {
  (void)round;
  (void)staging;
  stats_.rounds_synced += 1;
}

}  // namespace ba
