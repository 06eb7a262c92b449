#include "net/network.h"

#include <algorithm>

#include "common/check.h"
#include "common/pool.h"
#include "net/scheduler.h"
#include "transport/transport.h"

#include <ostream>

namespace ba {

namespace {

/// Stream-and-release policy for per-receiver round buffers: release the
/// heap block when its retained capacity dwarfs the traffic it is being
/// asked to hold (4x hysteresis), but never bother below a floor — small
/// buffers are the steady state and exposure schedules interleave empty
/// rounds with full ones, so releasing them would just churn the
/// allocator. Only a genuine spike (an all-to-all baseline round, a
/// flooding adversary) trips the release, and only once traffic falls.
template <typename T>
void release_if_oversized(std::vector<T>& v, std::size_t target) {
  constexpr std::size_t kFloorCap = 1024;
  if (v.capacity() > kFloorCap && v.capacity() > 4 * target)
    v.shrink_to_fit();
}

/// Send-log size (envelopes) below which the staging fill runs inline,
/// keeping pool dispatch off small logs (a few baseline sends, a mid-round
/// adversary read).
constexpr std::size_t kParallelStageMin = 2048;

}  // namespace

Network::Network(std::size_t n, std::size_t max_corrupt)
    : n_(n),
      max_corrupt_(max_corrupt),
      corrupt_(n, false),
      staging_(n),
      inboxes_(n),
      inbox_spans_(n),
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
  if (transport_) transport_->on_attach(n_);
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
  ledger_.charge_send_batch(from, count, count * payload.bits());
  log_receivers_.insert(log_receivers_.end(), receivers, receivers + count);
  SendEntry& s = send_log_.emplace_back();
  s.payload = std::move(payload);
  s.from = from;
  s.recv_end = static_cast<std::uint32_t>(log_receivers_.size());
}

void Network::stage_pending() const {
  if (send_log_.empty()) return;
  const std::size_t base = pending_log_.size();
  const std::size_t total = log_receivers_.size();
  pending_log_.resize(base + total);
  // Receiver-range fan-out: range `part` stages exactly the envelopes
  // addressed into it, walking the log in send order, so each bucket is
  // appended to in the order serial sends would have used.
  const std::size_t parts =
      total >= kParallelStageMin ? Pool::num_threads() : 1;
  Pool::for_each(parts, [this, base, parts](std::size_t part, std::size_t) {
    const auto lo = static_cast<ProcId>(n_ * part / parts);
    const auto width = static_cast<ProcId>(n_ * (part + 1) / parts) - lo;
    std::uint32_t k = 0;
    for (SendEntry& s : send_log_) {
      // A one-receiver entry has exactly one reader: move its payload.
      const bool single = s.recv_end - k == 1;
      for (; k < s.recv_end; ++k) {
        const ProcId to = log_receivers_[k];
        if (to - lo >= width) continue;
        auto& bucket = staging_[to];
        Envelope& e = bucket.emplace_back();
        e.from = s.from;
        e.to = to;
        e.round = round_;
        if (single)
          e.payload = std::move(s.payload);
        else
          e.payload = s.payload;
        pending_log_[base + k] = PendingRef{
            to, static_cast<std::uint32_t>(bucket.size() - 1), round_};
      }
    }
  });
  // The backend sees every staged envelope at the serialization point —
  // global send order, driver-side — so a socket backend can encode into
  // the receiver-owner's buffer before the round barrier.
  if (transport_)
    for (std::size_t i = base; i < base + total; ++i) {
      const PendingRef r = pending_log_[i];
      transport_->on_send(staging_[r.to][r.index]);
    }
  const std::size_t entries = send_log_.size();
  send_log_.clear();
  log_receivers_.clear();
  release_if_oversized(send_log_, entries);
  release_if_oversized(log_receivers_, total);
}

void Network::charge_batch(ProcId from, ProcId to, std::size_t content_bits) {
  BA_REQUIRE(from < n_ && to < n_, "processor id out of range");
  if (batch_msgs_ != 0 && from != batch_from_) flush_charge_batch();
  batch_from_ = from;
  batch_bits_ += content_bits + kHeaderBits;
  batch_msgs_ += 1;
  ledger_.charge_recv(to, content_bits + kHeaderBits);
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

void Network::flush_charge_batch() const {
  if (batch_msgs_ == 0) return;
  ledger_.charge_send_batch(batch_from_, batch_msgs_, batch_bits_);
  batch_msgs_ = 0;
  batch_bits_ = 0;
}

void Network::deliver_bucket(ProcId p, DeliveryScratch& s) {
  auto& in = inboxes_[p];
  auto& spans = inbox_spans_[p];
  in.clear();
  spans.clear();
  auto& stage = staging_[p];
  // Partial synchrony: fold p's scheduler state into the staged bucket —
  // delayed sends leave for the future queue, due arrivals merge in front
  // — before the empty check, since a quiet round can still have due
  // traffic landing. Touches only p-indexed scheduler state (the delay
  // draws already happened in advance_round's serial pre-pass).
  if (scheduler_) scheduler_->merge_bucket(p, stage, round_);
  if (stage.empty()) {
    // Stream-and-release: an idle receiver whose buffers still hold a
    // past spike's capacity returns it now instead of pinning peak RSS
    // for the rest of the run (see release_if_oversized's hysteresis).
    release_if_oversized(in, 0);
    release_if_oversized(stage, 0);
    return;
  }
  const std::size_t delivered = stage.size();
  if (s.sender_slot.size() < n_) s.sender_slot.assign(n_, 0);
  // One pass: charge receipts, count per sender, detect sorted input
  // and tag uniformity (one compare — almost every bucket carries a
  // single tag, and that case must stay as cheap as the seed's).
  s.touched_senders.clear();
  bool sorted = true;
  ProcId prev = 0;
  const std::uint32_t first_tag = stage.front().payload.tag;
  bool uniform_tag = true;
  for (const Envelope& e : stage) {
    ledger_.charge_recv(p, e.payload.bits());
    if (s.sender_slot[e.from]++ == 0) s.touched_senders.push_back(e.from);
    if (e.from < prev) sorted = false;
    prev = e.from;
    uniform_tag &= e.payload.tag == first_tag;
  }
  if (sorted) {
    // Already in per-sender order (the common case: drivers iterate
    // processors in id order) — swap buffers, zero copies.
    in.swap(stage);
  } else {
    // Stable counting sort by sender id: bucket offsets from the touched
    // senders only, then a single distribution pass. Replaces the seed's
    // per-inbox comparison stable_sort (and its temp allocations).
    std::sort(s.touched_senders.begin(), s.touched_senders.end());
    std::uint32_t offset = 0;
    for (ProcId sender : s.touched_senders) {
      const std::uint32_t count = s.sender_slot[sender];
      s.sender_slot[sender] = offset;
      offset += count;
    }
    in.resize(stage.size());
    for (Envelope& e : stage) in[s.sender_slot[e.from]++] = std::move(e);
  }
  for (ProcId sender : s.touched_senders) s.sender_slot[sender] = 0;
  stage.clear();
  // Stream-and-release (the huge-n memory diet): capacities are still
  // reused round over round — a steady workload never reallocates — but
  // a buffer whose retained capacity dwarfs this round's traffic (a past
  // all-to-all spike, say) is released rather than carried to the end of
  // the run. The 4x hysteresis plus the small-buffer floor keep normal
  // round-to-round jitter from ever triggering a release; the policy
  // depends only on this receiver's own traffic, so delivery stays a
  // pure per-receiver function (worker-count independent). The inbox
  // release runs at the END of delivery, after any mixed-tag swap, so
  // the policy evaluates the buffer that actually becomes the inbox.
  release_if_oversized(stage, delivered);
  if (uniform_tag) {
    spans.push_back({first_tag, 0, static_cast<std::uint32_t>(in.size())});
  } else {
    // Mixed-tag bucket (rare): count the distinct tags in a second
    // pass — they are few, so a linear scan with a most-recent check
    // suffices.
    s.touched_tags.clear();
    for (const Envelope& e : in) {
      const std::uint32_t tag = e.payload.tag;
      if (s.touched_tags.empty() || s.touched_tags.back().first != tag) {
        auto it = s.touched_tags.begin();
        for (; it != s.touched_tags.end() && it->first != tag; ++it) {
        }
        if (it == s.touched_tags.end())
          s.touched_tags.emplace_back(tag, 0);
        else
          std::swap(*it, s.touched_tags.back());
      }
      s.touched_tags.back().second += 1;
    }
    // Second stable counting pass grouping by tag (ascending), giving
    // the (tag, sender) lexicographic inbox and its span table in one
    // distribution sweep.
    std::sort(s.touched_tags.begin(), s.touched_tags.end());
    std::uint32_t offset = 0;
    for (auto& [tag, count] : s.touched_tags) {
      const std::uint32_t c = count;
      spans.push_back({tag, offset, offset + c});
      count = offset;  // becomes this tag's running write cursor
      offset += c;
    }
    s.tag_scratch.resize(in.size());
    for (Envelope& e : in) {
      std::uint32_t slot = 0;
      const std::uint32_t tag = e.payload.tag;
      while (s.touched_tags[slot].first != tag) ++slot;
      s.tag_scratch[s.touched_tags[slot].second++] = std::move(e);
    }
    in.swap(s.tag_scratch);
    // The swap parked the receiver's old inbox block in per-worker
    // scratch; bound its retention, or one receiver's spike capacity
    // migrates to whichever receiver this worker delivers next and peak
    // RSS becomes a function of the worker schedule.
    release_if_oversized(s.tag_scratch, delivered);
  }
  release_if_oversized(in, in.size());
  if (transcript_) {
    // Per-receiver transcript slot — disjoint across pool workers, the
    // same contract as the inbox itself. Digest the delivered stream in
    // inbox order (the order protocols consume), so loopback and socket
    // runs of the same seed produce identical per-processor digests.
    Fnv1a& d = transcript_->digests[p];
    d.mix(round_);
    d.mix(in.size());
    for (const Envelope& e : in) {
      d.mix(e.from);
      d.mix(e.round);
      d.mix(e.payload.tag);
      d.mix(e.payload.content_bits);
      d.mix(e.payload.words.size());
      for (std::uint64_t w : e.payload.words) d.mix(w);
    }
    transcript_->envelopes[p] += in.size();
    if (transcript_->dump && p == transcript_->dump_proc) {
      for (const Envelope& e : in)
        *transcript_->dump << "r=" << round_ << " to=" << p
                           << " from=" << e.from << " tag=" << e.payload.tag
                           << " bits=" << e.payload.content_bits
                           << " words=" << e.payload.words.size() << '\n';
    }
  }
}

void Network::advance_round() {
  stage_pending();
  flush_charge_batch();
  // Transport round barrier: a socket backend flushes and reconciles the
  // round's wire traffic against the staged buckets here — before the
  // scheduler's delay pre-pass and the delivery fan-out, so both operate
  // on the post-reconciliation (wire-authoritative) staging exactly as
  // they would on the locally staged envelopes.
  if (transport_) transport_->sync_round(round_, staging_);
  if (transcript_) transcript_->rounds += 1;
  // Partial synchrony: the one serial pass that consumes scheduler
  // randomness — a delay draw per staged envelope, in global send order —
  // runs before the fan-out so the per-receiver merges are draw-free
  // (the same discipline as the share flows' pre-drawn randomness).
  if (scheduler_) scheduler_->draw_delays(pending_log_);
  delivery_scratch_.fit();
  // Per-receiver buckets are independent after staging: fan delivery out
  // across the pool (see the threading-model note in network.h). The
  // grain keeps empty-bucket receivers from dominating dispatch cost.
  Pool::for_each(
      n_,
      [this](std::size_t p, std::size_t worker) {
        deliver_bucket(static_cast<ProcId>(p), delivery_scratch_[worker]);
      },
      /*min_grain=*/64);
  pending_log_.clear();
  ++round_;
}

TaggedInbox Network::inbox(ProcId p, std::uint32_t tag) const {
  BA_REQUIRE(p < n_, "processor id out of range");
  const auto& spans = inbox_spans_[p];
  for (const TagSpan& s : spans) {
    if (s.tag != tag) continue;
    const Envelope* base = inboxes_[p].data();
    return TaggedInbox{base + s.begin, base + s.end};
  }
  return TaggedInbox{};
}

std::vector<PendingRef> Network::pending_visible_to_adversary() const {
  stage_pending();
  // Rushing scheduler: private channels collapse — the adversary's view
  // is the whole send log (already in global send order), honest traffic
  // included, one round before its earliest possible delivery. Envelopes
  // in scheduler custody (delayed past their send round) are never
  // offered: refs die at advance_round() by the round-stamp contract.
  if (scheduler_ && scheduler_->rushes()) return pending_log_;
  // Private channels: filter the log by the current corruption mask. A
  // mid-round corruption thereby reveals traffic already in flight, and
  // the view keeps global send order.
  std::vector<PendingRef> visible;
  if (corrupt_count_ == 0) return visible;
  for (const PendingRef& r : pending_log_) {
    const Envelope& e = staging_[r.to][r.index];
    if (corrupt_[e.from] || corrupt_[r.to]) visible.push_back(r);
  }
  return visible;
}

std::vector<ProcId> Network::good_procs() const {
  std::vector<ProcId> out;
  out.reserve(n_ - corrupt_count_);
  for (ProcId p = 0; p < n_; ++p)
    if (!corrupt_[p]) out.push_back(p);
  return out;
}

}  // namespace ba
