// Synchronous point-to-point network with private channels and an
// adaptive-corruption model (Section 1.1 of the paper).
//
// Semantics reproduced from the paper's model:
//  * Fully connected: any processor may send to any other; the recipient
//    learns the true sender identity (no spoofing).
//  * Private channels: only the endpoints see a message's content. The
//    adversary may inspect exactly those envelopes that touch a corrupted
//    endpoint (`pending_visible_to_adversary`).
//  * Synchrony: messages sent in round r are delivered at the start of
//    round r+1 (after `advance_round`). set_scheduler() relaxes this to a
//    bounded-delay partial-synchrony model — per-envelope delivery delays
//    in [0, delta_max], optional reordering and rushing — seeded and
//    deterministic under the same parity contract (net/scheduler.h).
//  * Rushing: protocol drivers make good processors send first each round,
//    then invoke the adversary, which may read its visible pending traffic
//    and inject messages from corrupted processors in the *same* round.
//  * Adaptive takeover: `corrupt(p)` may be called at any time, up to the
//    budget fixed at construction; protocol state handover to the adversary
//    is the protocol driver's job (see Adversary::on_corrupt hooks).
//  * Flooding: corrupted processors may send unboundedly; receivers can
//    bound processing with inbox caps at the protocol layer.
//
// Implementation notes (the per-round hot path): pending traffic is staged
// in per-receiver buckets; delivery is a per-bucket stable counting sort
// into (tag, sender) lexicographic order — by sender first (reusing the
// seed-replacing counting sort) and, only when a bucket mixes tags, a
// second stable counting pass grouping by tag. The sort doubles as index
// construction: each receiver gets a per-tag span table, so protocols
// iterate exactly the envelopes of one tag via inbox(p, tag) instead of
// filtering the whole inbox per tally loop. Within a tag, envelopes are
// still sorted stably by sender — the subsequence a tag-filtering scan of
// the old sender-sorted inbox would have produced, so tag-scoped consumers
// see byte-identical message streams. All round storage (buckets, inboxes,
// counting scratch, span tables) is reused across rounds; steady-state
// rounds allocate nothing.
//
// Staging is deferred: send() and multicast() only validate, charge the
// sender's ledger row once per call, and append one (sender, payload,
// receiver span) entry to a per-round send log, so a vote fanned out to a
// k-regular neighbourhood costs one log entry, not k envelope builds. The
// first read of staged traffic (advance_round(), the adversary's view,
// pending_envelope()) fills the per-receiver buckets from the log in one
// pass and only then replays Transport::on_send driver-side, in global
// send order. Every bucket ends up holding exactly what per-message sends
// would have staged, in the same order.
//
// Ledger charging: the accounting-only bulk flows (share movement,
// sendOpen, query floods) go through charge_batch(), which accumulates
// consecutive same-sender charges into one pending (sender, round) batch
// drained at advance_round() (or on ledger access). That turns the three
// random-access ledger touches per message into one receiver touch plus
// two amortized sender updates. Flows whose message pattern is fixed in
// advance fold it into per-processor rows once and charge the rows with
// charge_table() on every repetition. The adversary's view is computed on
// read: the staged send log filtered by the current corruption mask.
//
// Threading model (the parallel round engine, common/pool.h): sends,
// corruptions, and adversary reads are driver-side and single-threaded.
// Two passes fan out, both over receivers:
//   1. The staging fill. Each worker owns a contiguous receiver range and
//      walks the whole send log in order, appending its receivers'
//      envelopes to their buckets and writing each envelope's PendingRef
//      at its global send position (disjoint slots). The log is read-only
//      during the pass; a multicast's payload copies share spilled word
//      buffers through the atomic refcount.
//   2. Delivery, in advance_round() after the charge batch is flushed.
//      What each worker touches:
//   * shared read-only during delivery: the corruption mask and the
//     network shape (n);
//   * per-receiver (disjoint across workers): staging_[p], inboxes_[p],
//     inbox_spans_[p], and the receiver row bits_recv_[p] of the ledger —
//     receiver p's entire delivery, including its recv charges, runs on
//     exactly one worker;
//   * per-worker: the counting-sort scratch (DeliveryScratch), one
//     PerWorker slot (its own cache line) per pool worker, reused across
//     rounds and (re)initialized per bucket so worker assignment is
//     unobservable.
// Determinism contract: a receiver's staging bucket is a pure function of
// the send log (its range owner visits the log in order, whatever the
// range split), and its delivered inbox is a pure function of that
// bucket, so BA_THREADS=1 and BA_THREADS=N produce byte-identical
// buckets, pending refs, inboxes, span tables, and ledgers at every round
// (asserted by tests/parallel_parity_test.cpp).
#pragma once

#include <cstdint>
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

/// Stable handle to a pending (undelivered) envelope. Unlike a raw
/// pointer, a PendingRef stays valid while the rushing adversary injects
/// more traffic via send() in the same round: it indexes into the
/// receiver's staging bucket, which only ever grows within a round. The
/// handle is round-stamped: it dies loudly at the next advance_round()
/// instead of silently resolving to whatever the next round staged at
/// the same index.
struct PendingRef {
  ProcId to = 0;
  std::uint32_t index = 0;
  std::uint64_t round = 0;  ///< round the envelope was staged in
};

/// Contiguous view of one round's delivered envelopes carrying a single
/// tag, sorted stably by sender. Iterable like a container.
struct TaggedInbox {
  const Envelope* first = nullptr;
  const Envelope* last = nullptr;

  const Envelope* begin() const { return first; }
  const Envelope* end() const { return last; }
  std::size_t size() const { return static_cast<std::size_t>(last - first); }
  bool empty() const { return first == last; }
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
  /// run before any traffic is staged (round 0, nothing pending). A
  /// kLockstep config is a no-op: no scheduler state is ever allocated,
  /// so the synchronous hot path costs exactly what it always did.
  void set_scheduler(const SchedulerConfig& cfg);

  /// The installed scheduler (delay stats, config), or nullptr when the
  /// network is lockstep-synchronous.
  const DelayScheduler* scheduler() const { return scheduler_.get(); }

  /// Attach a transport backend (transport/transport.h): one on_send
  /// callback per staged envelope, replayed in global send order when the
  /// send log is staged, and one sync_round barrier per advance_round,
  /// invoked before any delivery. Must run before traffic is staged; the
  /// network does not own the backend. No backend attached means the
  /// historical in-process behavior, bit for bit.
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
  /// row is charged once for all `count` messages. Staging, visibility
  /// and the transport are exactly as after `count` send() calls.
  void multicast(ProcId from, const ProcId* receivers, std::size_t count,
                 Payload payload);
  void multicast(ProcId from, const std::vector<ProcId>& receivers,
                 Payload payload) {
    multicast(from, receivers.data(), receivers.size(), std::move(payload));
  }

  /// Accounting-only send for bulk data flows whose receiver-side effect
  /// the protocol driver computes directly (share movement, sendOpen,
  /// query floods): charges the ledger exactly like send() — content bits
  /// plus the per-message header — but materialises no envelope, which
  /// keeps multi-million-message flows at O(1) memory without losing a
  /// bit of the paper's cost measure. The sender-side charge is
  /// accumulated per (sender, round) and drained at advance_round() (or
  /// on ledger access), so a fan-out loop touches the ledger once per
  /// receiver instead of three times per message.
  void charge_batch(ProcId from, ProcId to, std::size_t content_bits);

  /// Aggregated variant for flows whose message pattern is fixed in
  /// advance: row r stands for r.sent charge_batch calls from r.proc and
  /// r.received calls to r.proc, every message carrying `content_bits`.
  /// The three ledger columns end up exactly as after those calls, in any
  /// order relative to a pending charge_batch sender batch (the ledger
  /// only digests per-processor totals). Each row's processor must be in
  /// range.
  void charge_table(const std::vector<ChargeRow>& rows,
                    std::size_t content_bits);

  /// Deliver all pending traffic and begin the next round.
  void advance_round();

  /// Messages delivered to p this round (sent during the previous round),
  /// grouped by tag (ascending), sorted stably by sender within each tag.
  const std::vector<Envelope>& inbox(ProcId p) const { return inboxes_[p]; }

  /// The span of p's current inbox carrying `tag` (empty span if none).
  /// Replaces whole-inbox filter scans in per-tag tally loops.
  TaggedInbox inbox(ProcId p, std::uint32_t tag) const;

  /// Pending (not yet delivered) envelopes with a corrupted endpoint, in
  /// global send order. This is everything the rushing adversary is
  /// allowed to read mid-round. Returned by value so the caller may keep
  /// iterating while injecting; the handles themselves stay valid across
  /// subsequent send() calls until the next advance_round(); dereference
  /// them with pending_envelope().
  std::vector<PendingRef> pending_visible_to_adversary() const;

  /// Resolve a handle from pending_visible_to_adversary(). The round
  /// stamp makes staleness loud: a handle held across advance_round()
  /// whose index happens to be in range for the next round's staging
  /// must trip the contract check, not alias a different envelope.
  const Envelope& pending_envelope(PendingRef r) const {
    stage_pending();
    BA_REQUIRE(r.round == round_ && r.to < n_ &&
                   r.index < staging_[r.to].size(),
               "stale or out-of-range pending reference");
    return staging_[r.to][r.index];
  }

  /// The bit ledger, with any pending charge_batch() totals drained at
  /// call time. Do not retain the reference across further charge_batch()
  /// traffic — a held alias can miss up to one pending sender batch;
  /// re-call ledger() at each read point instead.
  BitLedger& ledger() {
    flush_charge_batch();
    return ledger_;
  }
  const BitLedger& ledger() const {
    flush_charge_batch();
    return ledger_;
  }

  /// All processor ids with is_corrupt(p) == false.
  std::vector<ProcId> good_procs() const;

 private:
  /// One tag's contiguous range within a receiver's inbox.
  struct TagSpan {
    std::uint32_t tag = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
  };

  /// Counting-sort scratch: one PerWorker slot per pool worker, reused across
  /// rounds. Every field is (re)initialized by each bucket that uses it,
  /// so which worker delivers which receiver is unobservable.
  struct DeliveryScratch {
    std::vector<std::uint32_t> sender_slot;
    std::vector<ProcId> touched_senders;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> touched_tags;
    std::vector<Envelope> tag_scratch;
  };

  /// One send()/multicast() call awaiting staging: `payload` goes to
  /// log_receivers_[previous entry's recv_end, recv_end).
  struct SendEntry {
    Payload payload;
    ProcId from = 0;
    std::uint32_t recv_end = 0;
  };

  void flush_charge_batch() const;
  /// Fill the staging buckets (and pending_log_) from the send log, then
  /// replay Transport::on_send in global send order and clear the log.
  /// Const for the same reason ledger() is: const reads must see staged
  /// traffic.
  void stage_pending() const;
  bool nothing_pending() const {
    return pending_log_.empty() && send_log_.empty();
  }
  /// Deliver receiver p's staged bucket into its inbox + span table and
  /// charge its receipts. Touches only p-indexed state plus `s`.
  void deliver_bucket(ProcId p, DeliveryScratch& s);

  std::size_t n_;
  std::size_t max_corrupt_;
  std::size_t corrupt_count_ = 0;
  std::uint64_t round_ = 0;
  std::vector<bool> corrupt_;
  // Per-receiver pending buckets, filled lazily from the send log (hence
  // mutable, like the ledger's charge batch).
  mutable std::vector<std::vector<Envelope>> staging_;
  std::vector<std::vector<Envelope>> inboxes_;
  std::vector<std::vector<TagSpan>> inbox_spans_;  ///< per-receiver tag index
  PerWorker<DeliveryScratch> delivery_scratch_;
  // All staged envelopes in global send order (storage reused across
  // rounds): the adversary's view and the scheduler's delay draws walk it.
  mutable std::vector<PendingRef> pending_log_;
  // Sends not yet staged, in call order, and their receivers back to back
  // (a receiver's index here is its envelope's send position past the
  // pending_log_ prefix).
  mutable std::vector<SendEntry> send_log_;
  mutable std::vector<ProcId> log_receivers_;
  // Pending per-(sender, round) charge batch (drained lazily, hence
  // mutable: const ledger reads must see drained totals).
  mutable ProcId batch_from_ = 0;
  mutable std::uint64_t batch_msgs_ = 0;
  mutable std::uint64_t batch_bits_ = 0;
  mutable BitLedger ledger_;
  // Partial-synchrony mode (net/scheduler.h); null in lockstep mode so
  // the synchronous delivery path carries zero scheduler overhead.
  std::unique_ptr<DelayScheduler> scheduler_;
  // Transport backend + transcript capture (transport/transport.h); not
  // owned, null in the historical in-process configuration.
  Transport* transport_ = nullptr;
  TranscriptCapture* transcript_ = nullptr;
};

}  // namespace ba
