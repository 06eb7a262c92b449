#include "transport/tcp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include "common/check.h"

namespace ba::transport {

namespace {

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  BA_REQUIRE(flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0,
             "fcntl(O_NONBLOCK) failed");
}

void set_nodelay(int fd) {
  int one = 1;
  // Round barriers are latency-bound on tiny frames; Nagle would add a
  // delayed-ack stall per round. Best-effort: not fatal if unsupported.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

sockaddr_in resolve(const PeerAddr& a) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(a.port);
  const char* host = a.host == "localhost" ? "127.0.0.1" : a.host.c_str();
  if (::inet_pton(AF_INET, host, &addr.sin_addr) != 1)
    throw WireError("unresolvable peer host (IPv4 dotted quad expected): " +
                    a.host);
  return addr;
}

/// Blocking write of the whole buffer (handshake phase only).
void write_exact(int fd, const std::uint8_t* data, std::size_t len,
                 std::uint64_t deadline) {
  while (len > 0) {
    if (now_ms() > deadline) throw WireError("handshake write timeout");
    const ssize_t k = ::write(fd, data, len);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("handshake write failed: ") +
                      std::strerror(errno));
    }
    data += k;
    len -= static_cast<std::size_t>(k);
  }
}

/// Blocking read of exactly `len` bytes (handshake phase only).
void read_exact(int fd, std::uint8_t* data, std::size_t len,
                std::uint64_t deadline) {
  while (len > 0) {
    const std::uint64_t now = now_ms();
    if (now > deadline) throw WireError("handshake read timeout");
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(deadline - now));
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("handshake poll failed: ") +
                      std::strerror(errno));
    }
    if (rc == 0) continue;
    const ssize_t k = ::read(fd, data, len);
    if (k < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("handshake read failed: ") +
                      std::strerror(errno));
    }
    if (k == 0) throw WireError("peer closed connection during handshake");
    data += k;
    len -= static_cast<std::size_t>(k);
  }
}

}  // namespace

TcpEndpoint::TcpEndpoint(TcpEndpointConfig cfg) : cfg_(std::move(cfg)) {
  nodes_ = cfg_.peers.size();
  n_ = cfg_.n;
  BA_REQUIRE(nodes_ >= 2, "tcp transport needs at least two nodes");
  BA_REQUIRE(cfg_.node_id < nodes_, "node id out of range of the peer table");
  BA_REQUIRE(n_ >= nodes_,
             "tcp transport needs n >= nodes (every node owns a block)");
  // Contiguous ownership blocks of owner_of: node k owns
  // [ceil(k*n/nodes), ceil((k+1)*n/nodes)), non-empty since n >= nodes.
  own_lo_ = static_cast<ProcId>(
      (static_cast<std::uint64_t>(cfg_.node_id) * n_ + nodes_ - 1) / nodes_);
  own_hi_ = static_cast<ProcId>(
      (static_cast<std::uint64_t>(cfg_.node_id + 1) * n_ + nodes_ - 1) /
      nodes_);
  peers_.resize(nodes_);
  for (Peer& p : peers_) p.reader = FrameReader(cfg_.max_frame_bytes);
  cursors_.assign(static_cast<std::size_t>(own_hi_ - own_lo_) * nodes_, 0);
}

TcpEndpoint::~TcpEndpoint() { close_all(); }

void TcpEndpoint::close_all() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  for (Peer& p : peers_) {
    if (p.fd >= 0) ::close(p.fd);
    p.fd = -1;
  }
}

void TcpEndpoint::handshake(std::uint32_t expect_node, int fd) {
  const std::uint64_t deadline =
      now_ms() + static_cast<std::uint64_t>(cfg_.timeout_ms);
  HelloFrame mine;
  mine.node_id = cfg_.node_id;
  mine.nodes = static_cast<std::uint32_t>(nodes_);
  mine.n = static_cast<std::uint32_t>(n_);
  mine.config_digest = cfg_.config_digest;
  std::vector<std::uint8_t> buf;
  encode(buf, mine);
  write_exact(fd, buf.data(), buf.size(), deadline);

  std::uint8_t len_bytes[kLenPrefixBytes];
  read_exact(fd, len_bytes, kLenPrefixBytes, deadline);
  std::uint32_t body_len = 0;
  for (int i = 0; i < 4; ++i)
    body_len |= static_cast<std::uint32_t>(len_bytes[i]) << (8 * i);
  // A hello body is tiny; anything bigger is not a handshake.
  if (body_len == 0 || body_len > 64)
    throw WireError("malformed handshake frame length");
  std::vector<std::uint8_t> body(body_len);
  read_exact(fd, body.data(), body_len, deadline);
  const HelloFrame theirs = decode_hello(body.data(), body.size());

  if (theirs.nodes != nodes_ || theirs.n != n_)
    throw WireError("handshake shape mismatch: peer has nodes=" +
                    std::to_string(theirs.nodes) + " n=" +
                    std::to_string(theirs.n));
  if (theirs.config_digest != cfg_.config_digest)
    throw WireError(
        "handshake config digest mismatch: nodes are running different "
        "jobs");
  if (theirs.node_id >= nodes_ || theirs.node_id == cfg_.node_id)
    throw WireError("handshake peer id out of range");
  if (expect_node != static_cast<std::uint32_t>(-1) &&
      theirs.node_id != expect_node)
    throw WireError("handshake identity mismatch: expected node " +
                    std::to_string(expect_node) + ", got " +
                    std::to_string(theirs.node_id));
  Peer& peer = peers_[theirs.node_id];
  if (peer.fd >= 0)
    throw WireError("duplicate connection from node " +
                    std::to_string(theirs.node_id));
  peer.fd = fd;
}

void TcpEndpoint::connect_all() {
  const std::uint64_t deadline =
      now_ms() + static_cast<std::uint64_t>(cfg_.timeout_ms);
  // Listen first, connect second: every node's listener exists before any
  // node starts dialing, so "connect to lower ids, accept from higher
  // ids" terminates — node 0 only accepts, the retry loop covers startup
  // skew for everyone else.
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  BA_REQUIRE(listen_fd_ >= 0, "socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in self = resolve(cfg_.peers[cfg_.node_id]);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&self), sizeof(self)) !=
      0)
    throw WireError("bind failed on port " +
                    std::to_string(cfg_.peers[cfg_.node_id].port) + ": " +
                    std::strerror(errno));
  BA_REQUIRE(::listen(listen_fd_, static_cast<int>(nodes_)) == 0,
             "listen() failed");

  for (std::uint32_t k = 0; k < cfg_.node_id; ++k) {
    sockaddr_in addr = resolve(cfg_.peers[k]);
    int fd = -1;
    for (;;) {
      if (now_ms() > deadline)
        throw WireError("timeout connecting to node " + std::to_string(k));
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      BA_REQUIRE(fd >= 0, "socket() failed");
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0)
        break;
      const int err = errno;
      ::close(fd);
      fd = -1;
      if (err != ECONNREFUSED && err != ETIMEDOUT && err != EINTR)
        throw WireError("connect to node " + std::to_string(k) +
                        " failed: " + std::strerror(err));
      // The peer's listener isn't up yet — back off briefly and redial.
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    handshake(k, fd);
  }

  for (std::uint32_t k = cfg_.node_id + 1; k < nodes_; ++k) {
    const std::uint64_t now = now_ms();
    if (now > deadline) throw WireError("timeout accepting peers");
    pollfd pfd{listen_fd_, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(deadline - now));
    if (rc <= 0) {
      if (rc < 0 && errno == EINTR) {
        --k;
        continue;
      }
      throw WireError("timeout accepting peers");
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        --k;
        continue;
      }
      throw WireError(std::string("accept() failed: ") +
                      std::strerror(errno));
    }
    // The accepted peer identifies itself in its Hello (higher ids dial
    // in arrival order, not id order).
    handshake(static_cast<std::uint32_t>(-1), fd);
  }

  for (std::uint32_t k = 0; k < nodes_; ++k) {
    if (k == cfg_.node_id) continue;
    if (peers_[k].fd < 0)
      throw WireError("peer table incomplete after handshake (node " +
                      std::to_string(k) + " missing)");
    set_nonblocking(peers_[k].fd);
    set_nodelay(peers_[k].fd);
  }
}

void TcpEndpoint::on_attach(std::size_t n) {
  BA_REQUIRE(n == n_, "network size does not match the tcp peer table");
  BA_REQUIRE(!attached_, "tcp endpoint attaches to one network per run");
  attached_ = true;
  stats_ = TransportStats{};
}

void TcpEndpoint::on_send(const Envelope& e) {
  if (owner_of(e.from) != cfg_.node_id) return;  // a peer's row to ship
  const std::uint32_t to_node = owner_of(e.to);
  if (to_node == cfg_.node_id) {
    stats_.envelopes_local += 1;
    return;
  }
  Peer& peer = peers_[to_node];
  const EnvelopeFrame f = make_envelope_frame(e);
  const std::size_t before = peer.out.size();
  encode(peer.out, f);
  mix_envelope_frame(peer.sent_digest, f);
  peer.sent_count += 1;
  stats_.frames_sent += 1;
  stats_.bytes_sent += peer.out.size() - before;
}

bool TcpEndpoint::all_flushed() const {
  for (const Peer& p : peers_)
    if (p.fd >= 0 && p.out_head < p.out.size()) return false;
  return true;
}

void TcpEndpoint::classify_frame(Peer& peer, std::vector<std::uint8_t> body) {
  switch (peek_opcode(body.data(), body.size())) {
    case Opcode::kEnvelope:
      break;
    case Opcode::kRoundDone:
      peer.round_done_queued += 1;
      break;
    case Opcode::kBye:
      peer.bye_queued = true;
      break;
    case Opcode::kHello:
      throw WireError("unexpected hello frame after handshake");
  }
  peer.frames.push_back(std::move(body));
}

void TcpEndpoint::pump_until(const std::function<bool()>& done,
                             const char* what) {
  const std::uint64_t deadline =
      now_ms() + static_cast<std::uint64_t>(cfg_.timeout_ms);
  std::vector<pollfd> fds;
  std::vector<std::uint32_t> fd_node;
  std::uint8_t buf[65536];
  while (!done()) {
    if (now_ms() > deadline)
      throw WireError(std::string("transport timeout while ") + what);
    fds.clear();
    fd_node.clear();
    for (std::uint32_t k = 0; k < nodes_; ++k) {
      Peer& p = peers_[k];
      if (p.fd < 0) continue;
      short events = POLLIN;
      if (p.out_head < p.out.size()) events |= POLLOUT;
      fds.push_back({p.fd, events, 0});
      fd_node.push_back(k);
    }
    if (fds.empty())
      throw WireError(std::string("no live peers while ") + what);
    const int rc = ::poll(fds.data(), fds.size(), 100);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw WireError(std::string("poll failed: ") + std::strerror(errno));
    }
    for (std::size_t i = 0; i < fds.size(); ++i) {
      Peer& p = peers_[fd_node[i]];
      if (fds[i].revents & (POLLIN | POLLERR | POLLHUP)) {
        for (;;) {
          const ssize_t k = ::read(p.fd, buf, sizeof(buf));
          if (k > 0) {
            stats_.bytes_recv += static_cast<std::uint64_t>(k);
            p.reader.feed(buf, static_cast<std::size_t>(k));
            std::vector<std::uint8_t> body;
            while (p.reader.next(body)) classify_frame(p, std::move(body));
            continue;
          }
          if (k == 0) {
            // EOF. A peer closes only after it has collected every node's
            // Bye — so if its own Bye is already queued here and we owe
            // it nothing, this is the benign tail of an orderly shutdown
            // (the fastest node hangs up first while slower peers are
            // still exchanging). Anything else is a dead peer.
            if (p.bye_queued && p.out_head >= p.out.size()) {
              ::close(p.fd);
              p.fd = -1;
              break;
            }
            throw WireError("node " + std::to_string(fd_node[i]) +
                            " closed its connection while " + what);
          }
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          if (errno == EINTR) continue;
          throw WireError(std::string("read failed: ") +
                          std::strerror(errno));
        }
      }
      if ((fds[i].revents & POLLOUT) && p.out_head < p.out.size()) {
        for (;;) {
          const std::size_t left = p.out.size() - p.out_head;
          if (left == 0) break;
          const ssize_t k = ::write(p.fd, p.out.data() + p.out_head, left);
          if (k > 0) {
            p.out_head += static_cast<std::size_t>(k);
            continue;
          }
          if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          if (k < 0 && errno == EINTR) continue;
          throw WireError(std::string("write failed: ") +
                          std::strerror(errno));
        }
        if (p.out_head == p.out.size()) {
          p.out.clear();
          p.out_head = 0;
        }
      }
    }
  }
}

void TcpEndpoint::sync_round(std::uint64_t round,
                             std::vector<std::vector<Envelope>>& staging) {
  BA_REQUIRE(attached_, "sync_round before on_attach");
  // 1. Close our side of the barrier: a RoundDone marker (count + digest
  // of everything we owed this peer in `round`) on every stream.
  for (std::uint32_t k = 0; k < nodes_; ++k) {
    if (k == cfg_.node_id) continue;
    Peer& peer = peers_[k];
    RoundDoneFrame rd;
    rd.round = round;
    rd.count = peer.sent_count;
    rd.digest = peer.sent_digest.h;
    const std::size_t before = peer.out.size();
    encode(peer.out, rd);
    stats_.bytes_sent += peer.out.size() - before;
    peer.sent_count = 0;
    peer.sent_digest = Fnv1a{};
  }

  // 2. Pump until every peer's barrier marker for this round has arrived
  // and our own buffers are drained.
  pump_until(
      [this] {
        if (!all_flushed()) return false;
        for (std::uint32_t k = 0; k < nodes_; ++k)
          if (k != cfg_.node_id && peers_[k].round_done_queued == 0)
            return false;
        return true;
      },
      "waiting for round barrier");

  // 3. Consume each peer's stream up to its marker, verifying every frame
  // against the local replay's per-receiver buckets.
  std::fill(cursors_.begin(), cursors_.end(), 0);
  for (std::uint32_t k = 0; k < nodes_; ++k) {
    if (k == cfg_.node_id) continue;
    Peer& peer = peers_[k];
    std::uint32_t recv_count = 0;
    Fnv1a recv_digest;
    for (;;) {
      BA_REQUIRE(!peer.frames.empty(),
                 "round barrier satisfied but marker missing");
      std::vector<std::uint8_t> body = std::move(peer.frames.front());
      peer.frames.pop_front();
      const Opcode op = peek_opcode(body.data(), body.size());
      if (op == Opcode::kRoundDone) {
        peer.round_done_queued -= 1;
        const RoundDoneFrame rd =
            decode_round_done(body.data(), body.size());
        if (rd.round != round)
          throw WireError("round barrier skew: node " + std::to_string(k) +
                          " closed round " + std::to_string(rd.round) +
                          " while this node is at round " +
                          std::to_string(round));
        if (rd.count != recv_count || rd.digest != recv_digest.h)
          throw WireError(
              "round " + std::to_string(round) + " stream from node " +
              std::to_string(k) + " does not match its marker (got " +
              std::to_string(recv_count) + " frames, announced " +
              std::to_string(rd.count) + ")");
        break;
      }
      if (op == Opcode::kBye)
        throw WireError("node " + std::to_string(k) +
                        " said goodbye mid-round " + std::to_string(round));
      const EnvelopeFrame f =
          decode_envelope(body.data(), body.size(), cfg_.max_frame_bytes);
      mix_envelope_frame(recv_digest, f);
      recv_count += 1;
      stats_.frames_recv += 1;
      if (owner_of(f.from) != k)
        throw WireError("node " + std::to_string(k) +
                        " shipped an envelope from processor " +
                        std::to_string(f.from) + " it does not own");
      if (!owns(f.to))
        throw WireError("received an envelope for processor " +
                        std::to_string(f.to) + " this node does not own");
      if (f.round != round)
        throw WireError("envelope round " + std::to_string(f.round) +
                        " inside barrier for round " +
                        std::to_string(round));
      // Oracle match: the peer's replay staged its sends in the same
      // global order ours did, so within one (receiver, peer) pair the
      // wire frames and the replay's staged envelopes are aligned
      // subsequences — a cursor walk finds the predicted envelope or
      // proves divergence.
      const std::vector<Envelope>& bucket = staging[f.to];
      std::uint32_t& cur = cursors_[cursor_index(f.to, k)];
      while (cur < bucket.size() && owner_of(bucket[cur].from) != k) ++cur;
      if (cur >= bucket.size())
        throw WireError("transcript divergence at round " +
                        std::to_string(round) + ": node " +
                        std::to_string(k) +
                        " sent an envelope the replay never predicted "
                        "(from=" +
                        std::to_string(f.from) + " to=" +
                        std::to_string(f.to) + " tag=" +
                        std::to_string(f.tag) + ")");
      const Envelope& predicted = bucket[cur];
      if (predicted.from != f.from || predicted.payload.tag != f.tag ||
          predicted.payload.content_bits != f.content_bits ||
          predicted.payload.words != f.words)
        throw WireError("transcript divergence at round " +
                        std::to_string(round) + ": wire frame from=" +
                        std::to_string(f.from) + " to=" +
                        std::to_string(f.to) + " tag=" +
                        std::to_string(f.tag) +
                        " differs from the replay's prediction (from=" +
                        std::to_string(predicted.from) + " tag=" +
                        std::to_string(predicted.payload.tag) + ")");
      cur += 1;
    }
  }

  // 4. Completeness sweep: every staged envelope for an owned receiver
  // whose sender lives on a peer must have been matched by a wire frame.
  for (ProcId p = own_lo_; p < own_hi_; ++p) {
    const std::vector<Envelope>& bucket = staging[p];
    for (std::size_t i = 0; i < bucket.size(); ++i) {
      const std::uint32_t k = owner_of(bucket[i].from);
      if (k == cfg_.node_id) continue;
      if (i >= cursors_[cursor_index(p, k)])
        throw WireError("transcript divergence at round " +
                        std::to_string(round) + ": replay predicted an "
                        "envelope from processor " +
                        std::to_string(bucket[i].from) + " (node " +
                        std::to_string(k) + ") to processor " +
                        std::to_string(p) +
                        " that the wire never carried");
    }
  }
  stats_.rounds_synced += 1;
}

std::vector<ByeFrame> TcpEndpoint::finish(const ByeFrame& mine) {
  for (std::uint32_t k = 0; k < nodes_; ++k) {
    if (k == cfg_.node_id) continue;
    const std::size_t before = peers_[k].out.size();
    encode(peers_[k].out, mine);
    stats_.bytes_sent += peers_[k].out.size() - before;
  }
  pump_until(
      [this] {
        if (!all_flushed()) return false;
        for (std::uint32_t k = 0; k < nodes_; ++k)
          if (k != cfg_.node_id && !peers_[k].bye_queued) return false;
        return true;
      },
      "waiting for bye exchange");

  std::vector<ByeFrame> byes(nodes_);
  byes[cfg_.node_id] = mine;
  for (std::uint32_t k = 0; k < nodes_; ++k) {
    if (k == cfg_.node_id) continue;
    Peer& peer = peers_[k];
    ByeFrame theirs;
    bool got = false;
    while (!peer.frames.empty()) {
      std::vector<std::uint8_t> body = std::move(peer.frames.front());
      peer.frames.pop_front();
      if (peek_opcode(body.data(), body.size()) != Opcode::kBye)
        throw WireError("node " + std::to_string(k) +
                        " had traffic queued past the final round");
      theirs = decode_bye(body.data(), body.size());
      got = true;
    }
    BA_REQUIRE(got, "bye marked queued but not found");
    if (theirs.decided != mine.decided ||
        theirs.fingerprint != mine.fingerprint ||
        theirs.transcript_digest != mine.transcript_digest) {
      char hex[128];
      std::snprintf(hex, sizeof(hex),
                    "(local fp=%016llx tr=%016llx, node fp=%016llx "
                    "tr=%016llx)",
                    static_cast<unsigned long long>(mine.fingerprint),
                    static_cast<unsigned long long>(mine.transcript_digest),
                    static_cast<unsigned long long>(theirs.fingerprint),
                    static_cast<unsigned long long>(theirs.transcript_digest));
      throw WireError("cross-node disagreement with node " +
                      std::to_string(k) + " at shutdown " + hex);
    }
    byes[k] = theirs;
  }
  close_all();
  return byes;
}

}  // namespace ba::transport
