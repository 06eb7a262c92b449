// Synchronous point-to-point network with private channels and an
// adaptive-corruption model (Section 1.1 of the paper).
//
// Semantics reproduced from the paper's model:
//  * Fully connected: any processor may send to any other; the recipient
//    learns the true sender identity (no spoofing).
//  * Private channels: only the endpoints see a message's content. The
//    network offers no view of pending traffic to anyone: the only reads
//    are a receiver's own inbox after delivery and the transport's copy
//    of what goes on the wire.
//  * Synchrony: messages sent in round r are delivered at the start of
//    round r+1 (after `advance_round`). set_scheduler() relaxes this to a
//    bounded-delay partial-synchrony model — per-envelope delivery delays
//    in [0, delta_max] and optional per-receiver reordering — seeded and
//    deterministic under the same parity contract (net/scheduler.h).
//  * Rushing: a driver-side step, not a network feature. Each AEBA vote
//    round queues the good processors' votes first, then lets the
//    adversary's VoteRusher (aeba/aeba_with_coins.h) read the machine's
//    vote state and inject votes from corrupted processors in the *same*
//    round, then advances.
//  * Adaptive takeover: `corrupt(p)` may be called at any time, up to the
//    budget fixed at construction; protocol state handover to the adversary
//    is the protocol driver's job (e.g. TournamentObserver in core/).
//  * Flooding: corrupted processors may send unboundedly; receivers can
//    bound processing with inbox caps at the protocol layer.
//
// The hot path: delivery by reference. A round's messages are stored once,
// in its send log. send() and multicast() validate, charge the sender's
// ledger row once per call, and append one SendEntry (sender, payload,
// receiver span) plus the receiver ids; a vote fanned out to k neighbours
// is one entry and k 4-byte receiver ids. Each receiver of an entry is one
// envelope, and its index in the round's receiver list is its global send
// position. Nothing else ever holds a payload: inboxes and the transport
// read the log through 4-byte refs (an entry index) or Envelope views
// (net/message.h).
//
// advance_round() delivers the log in two steps:
//   1. Staging: a counting sort of the receiver list into one flat array of
//      refs bucketed by receiver (CSR), each bucket in send order.
//   2. Delivery: each receiver's bucket is stably sorted by sender (a
//      counting sort over the touched senders; already-sorted buckets are
//      copied) into a second flat ref array, the inboxes. inbox(p) yields
//      them in sender order. A reader that tallies one message kind skips
//      the other tags itself; what it keeps is still in sender order. The
//      receiver's ledger row is charged here.
// The log is double-buffered: one buffer collects the round being sent,
// the other backs the inboxes of the round being read. So round r's inbox
// views stay valid while round r+1 is sent, and die at the advance_round()
// that delivers round r+1. Under a delay scheduler, a message delayed past
// its round is copied into the scheduler's future queue, and due arrivals
// are served from a per-round arrival store (refs with the kArrivalRef bit
// set). All round storage is
// reused across rounds; steady-state rounds allocate nothing.
//
// Ledger charging: every charge lands in the ledger at call time. The
// accounting-only bulk flows (share movement, sendOpen, query floods) go
// through charge_multicast(), shaped like multicast(): one sender charge
// for all of its receivers plus one touch per receiver. Flows whose
// message pattern is fixed in advance fold it into per-processor rows
// once and charge the rows with charge_table() on every repetition.
//
// Threading model (the parallel round engine, common/pool.h): sends,
// corruptions, the scheduler's delay draws and the transport replay are
// driver-side and single-threaded. Three passes fan out, all over
// receivers:
//   1. Staging. Each worker owns a contiguous chunk of send positions. It
//      counts its chunk's receivers into a histogram row of its own, then
//      (after a serial pass turns the rows into write cursors) writes its
//      refs into their buckets. The log is read-only during the pass.
//   2. The scheduler merge (only with a delay scheduler): receiver p's
//      delayed messages leave for its future queue, its due arrivals join
//      in front. Touches only p-indexed scheduler state.
//   3. Delivery. Receiver p's inbox bucket and ledger row bits_recv_[p]
//      are written by exactly one worker. The counting-sort
//      scratch is per worker (DeliveryScratch, one PerWorker slot on its
//      own cache line), reinitialized per bucket so worker assignment is
//      unobservable. Shared read-only: the log, the corruption mask, n.
// Determinism contract: a receiver's staged bucket is a pure function of
// the send log (the cursors order each bucket by chunk, and chunks by
// position, whatever the split), and its inbox is a pure function of
// that bucket, so BA_THREADS=1 and BA_THREADS=N produce byte-identical
// inboxes, transport callbacks and ledgers at every round
// (asserted by tests/parallel_parity_test.cpp and the delivery oracle in
// tests/net_test.cpp).
#pragma once

#include <cstdint>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "common/pool.h"
#include "net/message.h"
#include "net/stats.h"

namespace ba {

class DelayScheduler;
struct SchedulerConfig;
class Transport;
struct TranscriptCapture;

/// One send()/multicast() call in a round's send log: `payload` goes to
/// the receivers at global send positions [previous entry's recv_end,
/// recv_end).
struct SendEntry {
  Payload payload;
  ProcId from = 0;
  std::uint32_t recv_end = 0;
};

/// A delayed message delivered in a later round (net/scheduler.h): a copy
/// that outlives its send round's log.
struct Arrival {
  Payload payload;
  ProcId from = 0;
  std::uint64_t round = 0;  ///< round in which the message was sent
};

/// A message ref is a SendEntry index in the delivered round's log, or
/// kArrivalRef | i for entry i of the receiver's arrival store.
inline constexpr std::uint32_t kArrivalRef = 0x80000000u;

/// Resolves the message refs of one delivered round.
struct MessageStore {
  const SendEntry* entries = nullptr;
  const Arrival* arrivals = nullptr;  ///< the receiver's; null if none
  std::uint64_t round = 0;            ///< send round of the log entries

  Envelope envelope(ProcId to, std::uint32_t ref) const {
    if (ref & kArrivalRef) {
      const Arrival& a = arrivals[ref & ~kArrivalRef];
      return Envelope{a.from, to, a.round, a.payload};
    }
    const SendEntry& s = entries[ref];
    return Envelope{s.from, to, round, s.payload};
  }
  ProcId from(std::uint32_t ref) const {
    return ref & kArrivalRef ? arrivals[ref & ~kArrivalRef].from
                             : entries[ref].from;
  }
  const Payload& payload(std::uint32_t ref) const {
    return ref & kArrivalRef ? arrivals[ref & ~kArrivalRef].payload
                             : entries[ref].payload;
  }
};

/// One receiver's delivered envelopes, in sender order. Iteration yields
/// Envelope views by value; each view's payload reference stays valid
/// until the advance_round() that delivers the next round.
class InboxView {
 public:
  class iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Envelope;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Envelope;

    iterator() = default;
    iterator(const std::uint32_t* ref, const MessageStore& store, ProcId to)
        : ref_(ref), store_(store), to_(to) {}
    Envelope operator*() const { return store_.envelope(to_, *ref_); }
    Envelope operator[](difference_type i) const {
      return store_.envelope(to_, ref_[i]);
    }
    iterator& operator++() {
      ++ref_;
      return *this;
    }
    iterator operator++(int) {
      iterator old = *this;
      ++ref_;
      return old;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.ref_ == b.ref_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return a.ref_ != b.ref_;
    }

   private:
    const std::uint32_t* ref_ = nullptr;
    MessageStore store_;
    ProcId to_ = 0;
  };

  InboxView() = default;
  InboxView(const std::uint32_t* first, const std::uint32_t* last,
            MessageStore store, ProcId to)
      : first_(first), last_(last), store_(store), to_(to) {}

  iterator begin() const { return iterator(first_, store_, to_); }
  iterator end() const { return iterator(last_, store_, to_); }
  std::size_t size() const { return static_cast<std::size_t>(last_ - first_); }
  bool empty() const { return first_ == last_; }
  Envelope operator[](std::size_t i) const {
    return store_.envelope(to_, first_[i]);
  }

 private:
  const std::uint32_t* first_ = nullptr;
  const std::uint32_t* last_ = nullptr;
  MessageStore store_;
  ProcId to_ = 0;
};

/// One processor's row of an aggregated charge table
/// (Network::charge_table): messages it sends and receives.
struct ChargeRow {
  ProcId proc = 0;
  std::uint32_t sent = 0;
  std::uint32_t received = 0;
};

class Network {
 public:
  /// n processors, at most `max_corrupt` of which may ever be corrupted.
  Network(std::size_t n, std::size_t max_corrupt);
  ~Network();

  /// Install an adversarial delay scheduler (net/scheduler.h) turning the
  /// lockstep rounds into a bounded-delay partial-synchrony model. Must
  /// run before any traffic is sent (round 0, nothing pending). A
  /// kLockstep config is a no-op: no scheduler state is ever allocated,
  /// so the synchronous hot path costs exactly what it always did.
  void set_scheduler(const SchedulerConfig& cfg);

  /// The installed scheduler (delay stats, config), or nullptr when the
  /// network is lockstep-synchronous.
  const DelayScheduler* scheduler() const { return scheduler_.get(); }

  /// Attach a transport backend (transport/transport.h): one on_send
  /// callback per envelope, in global send order, and one sync_round
  /// barrier per round, both at advance_round() before any delivery.
  /// Must run before traffic is sent; the network does not own the
  /// backend. No backend attached means the in-process behavior, bit for
  /// bit.
  void set_transport(Transport* t);
  Transport* transport() const { return transport_; }

  /// Attach a per-processor delivered-message transcript capture (reset
  /// to this network's size). Deliveries digest into it from the pool
  /// workers — per-receiver slots, the same disjointness contract as the
  /// inboxes — so loopback and socket runs produce comparable digests.
  void set_transcript(TranscriptCapture* t);

  std::size_t size() const { return n_; }
  std::uint64_t round() const { return round_; }

  bool is_corrupt(ProcId p) const { return corrupt_[p]; }
  const std::vector<bool>& corrupt_mask() const { return corrupt_; }
  std::size_t corrupt_count() const { return corrupt_count_; }
  std::size_t corruption_budget_left() const {
    return max_corrupt_ - corrupt_count_;
  }

  /// Adaptively corrupt processor p. No-op if already corrupt.
  /// Fails (throws) if the budget is exhausted: the model caps the
  /// adversary at a (1/3 - eps) fraction.
  void corrupt(ProcId p);

  /// Queue a message for delivery at the start of the next round: a
  /// one-receiver multicast().
  void send(ProcId from, ProcId to, Payload payload) {
    multicast(from, &to, 1, std::move(payload));
  }

  /// Queue one copy of `payload` to each of `receivers[0, count)` (in
  /// that order; duplicates send duplicate copies). Every receiver is
  /// validated before anything is charged or logged; the sender's ledger
  /// row is charged once for all `count` messages. Inboxes and the
  /// transport are exactly as after `count` send() calls.
  void multicast(ProcId from, const ProcId* receivers, std::size_t count,
                 Payload payload);
  void multicast(ProcId from, const std::vector<ProcId>& receivers,
                 Payload payload) {
    multicast(from, receivers.data(), receivers.size(), std::move(payload));
  }

  /// Accounting-only multicast for bulk data flows whose receiver-side
  /// effect the protocol driver computes directly (share movement,
  /// sendOpen, query floods): charges the ledger exactly like
  /// multicast() — `count` messages of content bits plus the per-message
  /// header, one sender charge and one charge per receiver — but
  /// materialises no envelope, which keeps multi-million-message flows at
  /// O(1) memory without losing a bit of the paper's cost measure. Every
  /// id is validated before anything is charged.
  void charge_multicast(ProcId from, const ProcId* receivers,
                        std::size_t count, std::size_t content_bits);
  void charge_multicast(ProcId from, const std::vector<ProcId>& receivers,
                        std::size_t content_bits) {
    charge_multicast(from, receivers.data(), receivers.size(), content_bits);
  }

  /// Aggregated variant for flows whose message pattern is fixed in
  /// advance: row r stands for r.sent messages from r.proc and r.received
  /// messages to r.proc, every message carrying `content_bits`. The three
  /// ledger columns end up exactly as after the equivalent
  /// charge_multicast calls (the ledger only digests per-processor
  /// totals). Each row's processor must be in range.
  void charge_table(const std::vector<ChargeRow>& rows,
                    std::size_t content_bits);

  /// Deliver all pending traffic and begin the next round.
  void advance_round();

  /// Messages delivered to p this round (sent during the previous round),
  /// sorted stably by sender.
  InboxView inbox(ProcId p) const;

  /// Message slots the round buffers retain (send logs, receiver lists,
  /// ref arrays). Stream-and-release bounds it by a
  /// small multiple of the recent traffic once a spike has passed.
  std::size_t retained_capacity() const;

  /// The bit ledger: every charge so far, sends and receipts.
  BitLedger& ledger() { return ledger_; }
  const BitLedger& ledger() const { return ledger_; }

  /// All processor ids with is_corrupt(p) == false.
  std::vector<ProcId> good_procs() const;

 private:
  /// Counting-sort scratch: one PerWorker slot per pool worker, reused across
  /// rounds. Every field is (re)initialized by each bucket that uses it,
  /// so which worker delivers which receiver is unobservable.
  struct DeliveryScratch {
    std::vector<std::uint32_t> sender_slot;
    std::vector<ProcId> touched_senders;
  };

  /// One round's message store: the send()/multicast() calls in call
  /// order and their receivers back to back (a receiver's index here is
  /// its envelope's global send position).
  struct RoundLog {
    std::vector<SendEntry> entries;
    std::vector<ProcId> receivers;
  };

  bool nothing_pending() const { return logs_[sending_].entries.empty(); }
  /// Counting-sort the sending log's receiver list into the staged CSR
  /// (stage_off_, stage_refs_).
  void stage_round();
  /// Replay the sending log to the transport: on_send per envelope in
  /// global send order, then the sync_round barrier.
  void replay_to_transport();
  /// Sort receiver p's staged refs `in[0, count)` into its inbox bucket
  /// and charge its receipts. Touches only p-indexed state
  /// plus `s`.
  void deliver_bucket(ProcId p, const std::uint32_t* in, std::size_t count,
                      const MessageStore& store, DeliveryScratch& s);
  /// The store that resolves receiver p's refs of the round `log` holds.
  MessageStore store_for(ProcId p, const RoundLog& log,
                         std::uint64_t round) const;

  std::size_t n_;
  std::size_t max_corrupt_;
  std::size_t corrupt_count_ = 0;
  std::uint64_t round_ = 0;
  std::vector<bool> corrupt_;
  // Double-buffered send logs: logs_[sending_] collects the current
  // round, the other backs the inboxes of the round just delivered.
  RoundLog logs_[2];
  std::size_t sending_ = 0;
  // Staged CSR: receiver p's refs, in send order, are
  // stage_refs_[stage_off_[p], stage_off_[p + 1]).
  std::vector<std::uint32_t> stage_off_;
  std::vector<std::uint32_t> stage_refs_;
  // Staging's per-chunk receiver histograms, then write cursors.
  std::vector<std::uint32_t> stage_cursor_;
  // Delivered CSR, each bucket sorted by sender.
  std::vector<std::uint32_t> inbox_off_;
  std::vector<std::uint32_t> inbox_refs_;
  PerWorker<DeliveryScratch> delivery_scratch_;
  // Per-receiver views of the round handed to Transport::sync_round;
  // filled only while a transport is attached.
  std::vector<std::vector<Envelope>> transport_buckets_;
  BitLedger ledger_;
  // Partial-synchrony mode (net/scheduler.h); null in lockstep mode so
  // the synchronous delivery path carries zero scheduler overhead.
  std::unique_ptr<DelayScheduler> scheduler_;
  // Transport backend + transcript capture (transport/transport.h); not
  // owned, null in the in-process configuration.
  Transport* transport_ = nullptr;
  TranscriptCapture* transcript_ = nullptr;
};

}  // namespace ba
