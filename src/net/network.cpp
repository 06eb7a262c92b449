#include "net/network.h"

#include <algorithm>

#include "common/check.h"
#include "common/pool.h"
#include "net/scheduler.h"
#include "transport/transport.h"

#include <ostream>

namespace ba {

namespace {

/// Stream-and-release policy for round buffers: release the heap block
/// when its retained capacity dwarfs the traffic it is being asked to
/// hold (4x hysteresis), but never bother below a floor — small buffers
/// are the steady state and exposure schedules interleave empty rounds
/// with full ones, so releasing them would just churn the allocator. Only
/// a genuine spike (an all-to-all baseline round, a flooding adversary)
/// trips the release, and only once traffic falls.
template <typename T>
void release_if_oversized(std::vector<T>& v, std::size_t target) {
  constexpr std::size_t kFloorCap = 1024;
  if (v.capacity() > kFloorCap && v.capacity() > 4 * target)
    v.shrink_to_fit();
}

/// Envelopes per round below which staging runs inline, keeping pool
/// dispatch off small rounds (a few baseline sends).
constexpr std::size_t kParallelStageMin = 2048;

}  // namespace

Network::Network(std::size_t n, std::size_t max_corrupt)
    : n_(n),
      max_corrupt_(max_corrupt),
      corrupt_(n, false),
      stage_off_(n + 1, 0),
      inbox_off_(n + 1, 0),
      ledger_(n) {
  BA_REQUIRE(n > 0, "network needs at least one processor");
  BA_REQUIRE(max_corrupt < n, "adversary cannot own every processor");
}

Network::~Network() = default;

void Network::set_scheduler(const SchedulerConfig& cfg) {
  BA_REQUIRE(round_ == 0 && nothing_pending(),
             "scheduler must be installed before any traffic is staged");
  if (cfg.mode == SchedulerMode::kLockstep) {
    scheduler_.reset();
    return;
  }
  scheduler_ = std::make_unique<DelayScheduler>(cfg, n_);
}

void Network::set_transport(Transport* t) {
  BA_REQUIRE(round_ == 0 && nothing_pending(),
             "transport must be attached before any traffic is staged");
  transport_ = t;
  transport_buckets_.clear();
  if (transport_) {
    transport_buckets_.resize(n_);
    transport_->on_attach(n_);
  }
}

void Network::set_transcript(TranscriptCapture* t) {
  BA_REQUIRE(round_ == 0 && nothing_pending(),
             "transcript capture must be attached before any traffic");
  transcript_ = t;
  if (transcript_) transcript_->reset(n_);
}

void Network::corrupt(ProcId p) {
  BA_REQUIRE(p < n_, "processor id out of range");
  if (corrupt_[p]) return;
  BA_REQUIRE(corrupt_count_ < max_corrupt_,
             "adaptive corruption budget exhausted");
  corrupt_[p] = true;
  ++corrupt_count_;
}

void Network::multicast(ProcId from, const ProcId* receivers,
                        std::size_t count, Payload payload) {
  BA_REQUIRE(from < n_, "processor id out of range");
  for (std::size_t i = 0; i < count; ++i)
    BA_REQUIRE(receivers[i] < n_, "processor id out of range");
  if (count == 0) return;
  RoundLog& log = logs_[sending_];
  BA_REQUIRE(log.entries.size() < kArrivalRef &&
                 count < 0xFFFFFFFFu - log.receivers.size(),
             "too many messages in one round");
  ledger_.charge_send_batch(from, count, count * payload.bits());
  log.receivers.insert(log.receivers.end(), receivers, receivers + count);
  SendEntry& s = log.entries.emplace_back();
  s.payload = std::move(payload);
  s.from = from;
  s.recv_end = static_cast<std::uint32_t>(log.receivers.size());
}

void Network::stage_round() {
  const RoundLog& log = logs_[sending_];
  const std::size_t total = log.receivers.size();
  stage_refs_.resize(total);
  // A stable counting sort of the receiver list, split into contiguous
  // position chunks: chunk c counts its receivers into its own histogram
  // row, a serial pass turns the rows into write cursors (receiver-major,
  // chunks in order, so every bucket keeps send order), and each chunk
  // then places its refs. The chunk split changes no byte of the result.
  const std::size_t chunks =
      total >= kParallelStageMin ? Pool::num_threads() : 1;
  stage_cursor_.assign(chunks * n_, 0);
  const auto bounds = [total, chunks](std::size_t c) {
    return std::make_pair(total * c / chunks, total * (c + 1) / chunks);
  };
  Pool::for_each(chunks, [&](std::size_t c, std::size_t) {
    std::uint32_t* row = stage_cursor_.data() + c * n_;
    const auto [lo, hi] = bounds(c);
    for (std::size_t k = lo; k < hi; ++k) ++row[log.receivers[k]];
  });
  std::uint32_t offset = 0;
  for (std::size_t to = 0; to < n_; ++to) {
    stage_off_[to] = offset;
    for (std::size_t c = 0; c < chunks; ++c) {
      std::uint32_t& slot = stage_cursor_[c * n_ + to];
      const std::uint32_t count = slot;
      slot = offset;
      offset += count;
    }
  }
  stage_off_[n_] = offset;
  Pool::for_each(chunks, [&](std::size_t c, std::size_t) {
    std::uint32_t* cursor = stage_cursor_.data() + c * n_;
    const auto [lo, hi] = bounds(c);
    if (lo == hi) return;
    // The entry holding position lo: the first whose span ends past it.
    auto e = static_cast<std::uint32_t>(
        std::upper_bound(log.entries.begin(), log.entries.end(), lo,
                         [](std::size_t pos, const SendEntry& s) {
                           return pos < s.recv_end;
                         }) -
        log.entries.begin());
    for (std::size_t k = lo; k < hi; ++k) {
      while (log.entries[e].recv_end <= k) ++e;
      stage_refs_[cursor[log.receivers[k]]++] = e;
    }
  });
}

void Network::replay_to_transport() {
  // The backend sees every envelope at the serialization point — global
  // send order, driver-side — so a socket backend can encode into the
  // receiver-owner's buffer before the round barrier, then reconcile its
  // peers' frames against the per-receiver buckets.
  const RoundLog& log = logs_[sending_];
  std::uint32_t k = 0;
  for (const SendEntry& s : log.entries)
    for (; k < s.recv_end; ++k) {
      const Envelope e{s.from, log.receivers[k], round_, s.payload};
      transport_->on_send(e);
      transport_buckets_[e.to].push_back(e);
    }
  transport_->sync_round(round_, transport_buckets_);
  for (auto& bucket : transport_buckets_) {
    const std::size_t held = bucket.size();
    bucket.clear();
    release_if_oversized(bucket, held);
  }
}

void Network::charge_multicast(ProcId from, const ProcId* receivers,
                               std::size_t count, std::size_t content_bits) {
  BA_REQUIRE(from < n_, "processor id out of range");
  for (std::size_t i = 0; i < count; ++i)
    BA_REQUIRE(receivers[i] < n_, "processor id out of range");
  const std::uint64_t bits = content_bits + kHeaderBits;
  ledger_.charge_send_batch(from, count, count * bits);
  for (std::size_t i = 0; i < count; ++i)
    ledger_.charge_recv(receivers[i], bits);
}

void Network::charge_table(const std::vector<ChargeRow>& rows,
                           std::size_t content_bits) {
  const std::uint64_t bits = content_bits + kHeaderBits;
  for (const ChargeRow& r : rows) {
    BA_REQUIRE(r.proc < n_, "processor id out of range");
    ledger_.charge_send_batch(r.proc, r.sent, r.sent * bits);
    ledger_.charge_recv(r.proc, r.received * bits);
  }
}

MessageStore Network::store_for(ProcId p, const RoundLog& log,
                                std::uint64_t round) const {
  MessageStore store{log.entries.data(), nullptr, round};
  if (scheduler_) store.arrivals = scheduler_->arrivals(p).data();
  return store;
}

void Network::deliver_bucket(ProcId p, const std::uint32_t* in,
                             std::size_t count, const MessageStore& store,
                             DeliveryScratch& s) {
  if (count == 0) return;
  std::uint32_t* out = inbox_refs_.data() + inbox_off_[p];
  // One pass: sum receipts and find where the sender order descends.
  std::size_t descents = 0, split = 0;
  ProcId prev = 0;
  std::uint64_t bits = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const ProcId from = store.from(in[i]);
    bits += store.payload(in[i]).bits();
    if (from < prev) {
      ++descents;
      split = i;
    }
    prev = from;
  }
  ledger_.charge_recv(p, bits);
  // Stable sort by sender. Drivers send in processor order, so a bucket
  // is one ascending run, or two when rushed corrupt traffic follows the
  // good traffic; a merge keeps those linear. Anything else takes a
  // counting sort over the touched senders.
  const auto by_sender = [&store](std::uint32_t a, std::uint32_t b) {
    return store.from(a) < store.from(b);
  };
  if (descents == 0) {
    std::copy(in, in + count, out);
  } else if (descents == 1) {
    std::merge(in, in + split, in + split, in + count, out, by_sender);
  } else {
    if (s.sender_slot.size() < n_) s.sender_slot.assign(n_, 0);
    s.touched_senders.clear();
    for (std::size_t i = 0; i < count; ++i) {
      const ProcId from = store.from(in[i]);
      if (s.sender_slot[from]++ == 0) s.touched_senders.push_back(from);
    }
    std::sort(s.touched_senders.begin(), s.touched_senders.end());
    std::uint32_t offset = 0;
    for (ProcId sender : s.touched_senders) {
      const std::uint32_t c = s.sender_slot[sender];
      s.sender_slot[sender] = offset;
      offset += c;
    }
    for (std::size_t i = 0; i < count; ++i)
      out[s.sender_slot[store.from(in[i])]++] = in[i];
    for (ProcId sender : s.touched_senders) s.sender_slot[sender] = 0;
  }
  if (transcript_) {
    // Per-receiver transcript slot — disjoint across pool workers, the
    // same contract as the inbox itself. Digest the delivered stream in
    // inbox order (the order protocols consume), so loopback and socket
    // runs of the same seed produce identical per-processor digests.
    Fnv1a& d = transcript_->digests[p];
    d.mix(round_);
    d.mix(count);
    for (std::size_t i = 0; i < count; ++i) {
      const Envelope e = store.envelope(p, out[i]);
      d.mix(e.from);
      d.mix(e.round);
      d.mix(e.payload.tag);
      d.mix(e.payload.content_bits);
      d.mix(e.payload.words.size());
      for (std::uint64_t w : e.payload.words) d.mix(w);
    }
    transcript_->envelopes[p] += count;
    if (transcript_->dump && p == transcript_->dump_proc) {
      for (std::size_t i = 0; i < count; ++i) {
        const Envelope e = store.envelope(p, out[i]);
        *transcript_->dump << "r=" << round_ << " to=" << p
                           << " from=" << e.from << " tag=" << e.payload.tag
                           << " bits=" << e.payload.content_bits
                           << " words=" << e.payload.words.size() << '\n';
      }
    }
  }
}

void Network::advance_round() {
  stage_round();
  // Transport round barrier: a socket backend ships and reconciles the
  // round's wire traffic here — before the scheduler's delay pass and the
  // delivery fan-out, which read the same log the wire was checked
  // against.
  if (transport_) replay_to_transport();
  if (transcript_) transcript_->rounds += 1;
  const RoundLog& log = logs_[sending_];
  const std::size_t total = log.receivers.size();
  // Partial synchrony: the one serial pass that consumes scheduler
  // randomness — a delay draw per envelope, in global send order — runs
  // before the fan-outs, so the per-receiver merges are draw-free (the
  // same discipline as the share flows' pre-drawn randomness).
  if (scheduler_) {
    scheduler_->draw_delays(log.receivers, stage_off_);
    Pool::for_each(
        n_,
        [&](std::size_t p, std::size_t) {
          const std::uint32_t lo = stage_off_[p];
          scheduler_->merge(static_cast<ProcId>(p), stage_refs_.data() + lo,
                            stage_off_[p + 1] - lo, lo, log.entries.data(),
                            round_);
        },
        /*min_grain=*/64);
    for (ProcId p = 0; p < n_; ++p)
      inbox_off_[p + 1] =
          inbox_off_[p] +
          static_cast<std::uint32_t>(scheduler_->merged(p).size());
  } else {
    inbox_off_ = stage_off_;
  }
  inbox_refs_.resize(inbox_off_[n_]);
  delivery_scratch_.fit();
  // Per-receiver buckets are independent after staging: fan delivery out
  // across the pool (see the threading-model note in network.h). The
  // grain keeps empty-bucket receivers from dominating dispatch cost.
  Pool::for_each(
      n_,
      [&](std::size_t i, std::size_t worker) {
        const auto p = static_cast<ProcId>(i);
        const MessageStore store = store_for(p, log, round_);
        if (scheduler_) {
          const std::vector<std::uint32_t>& in = scheduler_->merged(p);
          deliver_bucket(p, in.data(), in.size(), store,
                         delivery_scratch_[worker]);
        } else {
          deliver_bucket(p, stage_refs_.data() + stage_off_[p],
                         stage_off_[p + 1] - stage_off_[p], store,
                         delivery_scratch_[worker]);
        }
      },
      /*min_grain=*/64);
  // Stream-and-release (the huge-n memory diet): capacities are reused
  // round over round — a steady workload never reallocates — but a buffer
  // whose retained capacity dwarfs this round's traffic (a past
  // all-to-all spike, say) is released rather than carried to the end of
  // the run. The policy depends only on round totals, so memory stays
  // worker-count independent.
  release_if_oversized(stage_refs_, total);
  release_if_oversized(inbox_refs_, inbox_refs_.size());
  // The delivered log now backs the inboxes; the one that backed the
  // previous round's inboxes is dead and collects the next round.
  // This round's traffic is the estimate for the next one.
  const std::size_t entries = log.entries.size();
  sending_ ^= 1;
  RoundLog& next = logs_[sending_];
  next.entries.clear();
  next.receivers.clear();
  release_if_oversized(next.entries, entries);
  release_if_oversized(next.receivers, total);
  ++round_;
}

InboxView Network::inbox(ProcId p) const {
  BA_REQUIRE(p < n_, "processor id out of range");
  const std::uint32_t* base = inbox_refs_.data();
  return InboxView(base + inbox_off_[p], base + inbox_off_[p + 1],
                   store_for(p, logs_[sending_ ^ 1], round_ - 1), p);
}

std::size_t Network::retained_capacity() const {
  std::size_t slots = stage_refs_.capacity() + inbox_refs_.capacity();
  for (const RoundLog& log : logs_)
    slots += log.entries.capacity() + log.receivers.capacity();
  return slots;
}

std::vector<ProcId> Network::good_procs() const {
  std::vector<ProcId> out;
  out.reserve(n_ - corrupt_count_);
  for (ProcId p = 0; p < n_; ++p)
    if (!corrupt_[p]) out.push_back(p);
  return out;
}

}  // namespace ba
