// The socket backend: real OS processes exchanging wire frames over TCP,
// with the deterministic simulator as an inline differential oracle.
//
// Each `ba_node` process owns a contiguous block of processor ids
// (`owner_of`: node k owns the p with p*nodes/n == k) and runs the full
// seeded protocol replay — protocols in this repo are whole-network
// drivers, and the replay is what lets every node agree on what the
// traffic *should* be without a per-processor rewrite. What actually
// crosses the wire is each node's own rows of the communication matrix:
// an envelope whose sender it owns and whose receiver it does not is
// serialized (transport/wire.h) into the receiver-owner's send buffer at
// send() time.
//
// The round barrier (`sync_round`, called by Network::advance_round before
// any delivery) maps the synchronous model onto sockets: append a
// RoundDone(r, count, digest) marker to every peer stream, then pump a
// poll loop — reads and writes simultaneously, so two nodes flushing at
// each other cannot deadlock — until every outbound byte is flushed and
// every peer's RoundDone(r) has arrived. TCP's per-stream ordering makes
// the marker a barrier: frames before it are round-r traffic, frames
// after it (an already-unblocked fast peer racing into round r+1) stay
// queued for the next barrier.
//
// Reconciliation is where the oracle contract bites. Each received frame
// is matched against the local replay's bucket for its receiver (the
// views sync_round receives) — per-(receiver, peer) cursors walk the
// bucket in global send order, the same order the peer's replay emitted
// the frames — and every field (sender, round, tag, honest bit size,
// payload words) must equal the replay's prediction. So the bytes that
// crossed the socket are, word for word, the ones the protocol consumes
// from the replay's send log. A frame the replay didn't predict, a
// predicted message the wire never carried, or any field divergence
// throws at the exact round it happens. Shutdown exchanges Bye frames
// carrying each node's decision, run fingerprint (which digests the full
// per-processor bit ledger), and combined transcript digest; `finish`
// verifies all nodes agree.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "transport/transport.h"
#include "transport/wire.h"

namespace ba::transport {

struct PeerAddr {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct TcpEndpointConfig {
  std::uint32_t node_id = 0;      ///< this process's index into peers
  std::vector<PeerAddr> peers;    ///< all nodes, self included
  std::size_t n = 0;              ///< processor count (>= peers.size())
  std::uint64_t config_digest = 0;///< digest of the run's job line
  int timeout_ms = 60000;         ///< per-barrier / handshake deadline
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
};

class TcpEndpoint final : public Transport {
 public:
  explicit TcpEndpoint(TcpEndpointConfig cfg);
  ~TcpEndpoint() override;
  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  /// Node owning processor p: contiguous blocks, every node non-empty
  /// (requires n >= nodes).
  std::uint32_t owner_of(ProcId p) const {
    return static_cast<std::uint32_t>(static_cast<std::uint64_t>(p) *
                                      nodes_ / n_);
  }
  bool owns(ProcId p) const { return owner_of(p) == cfg_.node_id; }
  ProcId owned_begin() const { return own_lo_; }
  ProcId owned_end() const { return own_hi_; }

  /// Establish the full mesh: bind + listen, connect to lower node ids
  /// (retrying while the peer is still coming up), accept from higher
  /// ones, exchange and validate Hello frames on every link. Blocking;
  /// throws WireError on timeout or a handshake mismatch.
  void connect_all();

  /// End-of-run exchange: ship `mine` to every peer, collect theirs, and
  /// verify all nodes reached the same decision / fingerprint /
  /// transcript digest (throws WireError on cross-node disagreement).
  /// Returns the peers' Bye frames indexed by node id (self slot =
  /// `mine`). Closes all connections.
  std::vector<ByeFrame> finish(const ByeFrame& mine);

  // Transport interface -----------------------------------------------
  const char* backend_name() const override { return "tcp"; }
  void on_attach(std::size_t n) override;
  void on_send(const Envelope& e) override;
  void sync_round(std::uint64_t round,
                  std::vector<std::vector<Envelope>>& staging) override;
  const TransportStats& stats() const override { return stats_; }

 private:
  /// Per-peer connection state: send buffer, incremental frame reader,
  /// and the queue of complete-but-unconsumed frame bodies (deferred
  /// parsing — bodies decode at barrier consumption, not arrival).
  struct Peer {
    int fd = -1;
    std::vector<std::uint8_t> out;
    std::size_t out_head = 0;
    FrameReader reader{kDefaultMaxFrameBytes};
    std::deque<std::vector<std::uint8_t>> frames;
    std::size_t round_done_queued = 0;  ///< RoundDone bodies in `frames`
    bool bye_queued = false;
    // Send side of the current round (reset at each RoundDone).
    std::uint32_t sent_count = 0;
    Fnv1a sent_digest;
  };

  std::size_t cursor_index(ProcId p, std::uint32_t k) const {
    return static_cast<std::size_t>(p - own_lo_) * nodes_ + k;
  }

  void handshake(std::uint32_t expect_node, int fd);
  void pump_until(const std::function<bool()>& done, const char* what);
  bool all_flushed() const;
  void classify_frame(Peer& peer, std::vector<std::uint8_t> body);
  void close_all();

  TcpEndpointConfig cfg_;
  std::size_t nodes_ = 0;
  std::size_t n_ = 0;
  ProcId own_lo_ = 0, own_hi_ = 0;
  int listen_fd_ = -1;
  std::vector<Peer> peers_;  ///< indexed by node id; self slot unused
  std::vector<std::uint32_t> cursors_;  ///< per-(owned receiver, peer)
  bool attached_ = false;
  TransportStats stats_;
};

}  // namespace ba::transport
