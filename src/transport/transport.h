// The transport subsystem: how envelopes move between processors.
//
// The simulator's `Network` keeps each round's messages once, in a send
// log, and delivers them at `advance_round()` by reference — an in-process
// loopback. A production BA system speaks wire protocols between OS
// processes. This module abstracts the boundary: `Transport` is the
// backend interface `Network` drives, with two implementations:
//
//  * `LoopbackTransport` (this header) — the in-process backend. Delivery
//    stays entirely inside `Network` (zero behavior change); the backend
//    only meters what *would* cross a wire, so loopback and socket runs
//    report comparable frame/byte accounting. A `Network` without any
//    transport attached behaves identically — the null and loopback
//    backends differ only in that the latter keeps stats.
//  * `TcpEndpoint` (transport/tcp.h) — the socket backend. Each `ba_node`
//    OS process owns a contiguous block of processor ids and runs the
//    deterministic protocol engine as a full replica; envelopes whose
//    sender it owns and whose receiver it does not are serialized
//    (transport/wire.h) and shipped to the owning peer over TCP. At every
//    `advance_round()` the endpoint runs a round barrier: all round-r
//    frames flushed and acked (opcode kRoundDone, with count + digest)
//    before any round-r+1 traffic is processed — the synchronous model
//    mapped onto sockets.
//
// Determinism / oracle contract: every node replays the same seeded run,
// so the frames a node receives must be byte-identical to the envelopes
// its own replay sent to its processors. The socket backend verifies
// exactly that at each barrier (sender, round, tag, honest bit size,
// payload words) — any divergence between "what the wire carried" and
// "what the simulator predicts" dies loudly at the round it happens. The
// wire is authoritative in that sense: a round completes only if the
// bytes that crossed the socket are the ones the protocol consumes, which
// the check establishes, so the inbox keeps reading the replay's copy of
// each payload rather than adopting the wire's. The in-process simulator
// is thereby the differential oracle for every distributed run; ba_launch
// additionally diffs per-processor delivered-message transcripts
// (`TranscriptCapture`) and run fingerprints (which digest the full
// per-processor bit ledger) against an in-process run at the same seed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common/rng.h"  // Fnv1a
#include "net/message.h"

namespace ba {

/// Wire/loopback accounting, comparable across backends.
struct TransportStats {
  std::uint64_t frames_sent = 0;      ///< envelope frames put on the wire
  std::uint64_t frames_recv = 0;      ///< envelope frames taken off the wire
  std::uint64_t bytes_sent = 0;       ///< all frame bytes, headers included
  std::uint64_t bytes_recv = 0;
  std::uint64_t envelopes_local = 0;  ///< staged locally, never serialized
  std::uint64_t rounds_synced = 0;    ///< round barriers completed
};

/// Backend interface driven by Network: one callback per envelope (in
/// global send order — the serialization point every backend shares) and
/// one round barrier per advance_round(), both before any delivery.
class Transport {
 public:
  virtual ~Transport() = default;

  virtual const char* backend_name() const = 0;

  /// Network::set_transport handshake: the run's processor count. Called
  /// once, before any traffic; backends validate their peer table here.
  virtual void on_attach(std::size_t n) = 0;

  /// One envelope of the round being advanced. send() and multicast()
  /// only log; advance_round() replays the whole round's log here, once
  /// per (message, receiver) pair, in global send order, and then calls
  /// sync_round. Runs driver-side (single-threaded), never inside send().
  /// `e` is a view into the round's send log: copy what must outlive the
  /// call.
  virtual void on_send(const Envelope& e) = 0;

  /// Round barrier at Network::advance_round, after the round's on_send
  /// calls and before any scheduler pass or delivery: flush everything
  /// this endpoint sent in `round`, collect every peer's round-`round`
  /// traffic, and check it against `staging` — the same envelopes, as
  /// views bucketed by receiver (index = receiver id), each bucket in
  /// send order. The views stay valid until the call returns; delivery
  /// then reads the same log, so what was checked is what is delivered.
  virtual void sync_round(std::uint64_t round,
                          std::vector<std::vector<Envelope>>& staging) = 0;

  virtual const TransportStats& stats() const = 0;
};

/// The in-process backend: delivery stays entirely inside Network
/// (byte-identical to no transport at all); the backend just meters the
/// frames a socket run would have exchanged, using the real wire encoding
/// sizes, so loopback reports are comparable with TCP ones.
class LoopbackTransport final : public Transport {
 public:
  const char* backend_name() const override { return "loopback"; }
  void on_attach(std::size_t n) override;
  void on_send(const Envelope& e) override;
  void sync_round(std::uint64_t round,
                  std::vector<std::vector<Envelope>>& staging) override;
  const TransportStats& stats() const override { return stats_; }

 private:
  TransportStats stats_;
  std::size_t n_ = 0;
};

/// Per-processor delivered-message transcript: a running digest of every
/// envelope each processor's inbox receives, in delivery order, plus an
/// optional line-per-envelope dump of one processor's stream. Updated by
/// Network::deliver_bucket when attached (set_transcript); identical
/// between loopback and socket backends by the oracle contract — the
/// cross-process parity artifact ba_launch and the transport_parity test
/// diff. The dump stream, when set, must not be written by anyone else
/// during the run (the delivering pool worker writes it).
struct TranscriptCapture {
  static constexpr ProcId kNoDumpProc = static_cast<ProcId>(-1);

  std::vector<Fnv1a> digests;           ///< [proc] running delivery digest
  std::vector<std::uint64_t> envelopes; ///< [proc] delivered envelope count
  std::uint64_t rounds = 0;             ///< advance_round() calls observed
  std::ostream* dump = nullptr;         ///< optional per-envelope text dump
  ProcId dump_proc = kNoDumpProc;       ///< whose stream to dump

  void reset(std::size_t n) {
    digests.assign(n, Fnv1a{});
    envelopes.assign(n, 0);
    rounds = 0;
  }

  /// Digest of all per-processor digests + counts — the one-number
  /// summary a node reports and ba_launch compares.
  std::uint64_t combined() const {
    Fnv1a d;
    for (const Fnv1a& f : digests) d.mix(f.h);
    for (std::uint64_t c : envelopes) d.mix(c);
    d.mix(rounds);
    return d.h;
  }
};

/// Ambient run environment: how a driver process (ba_node, ba_launch's
/// in-process oracle, tests) injects a transport endpoint and a transcript
/// capture into the Network that run_scenario will construct.
/// Installed via ScopedRunEnv around run_scenario; it alone picks the
/// backend (none installed means in-process delivery).
struct RunEnv {
  Transport* transport = nullptr;       ///< attached to the run's Network
  TranscriptCapture* transcript = nullptr;
};

/// RAII installer for the (single-threaded, driver-side) ambient RunEnv.
/// Nesting is rejected: one run environment per process at a time.
class ScopedRunEnv {
 public:
  explicit ScopedRunEnv(const RunEnv& env);
  ~ScopedRunEnv();
  ScopedRunEnv(const ScopedRunEnv&) = delete;
  ScopedRunEnv& operator=(const ScopedRunEnv&) = delete;
};

/// The installed environment, or nullptr outside any ScopedRunEnv.
const RunEnv* current_run_env();

}  // namespace ba
