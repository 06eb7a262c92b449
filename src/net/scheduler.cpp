#include "net/scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace ba {

namespace {

/// Same stream-and-release policy as the delivery buffers (network.cpp):
/// future queues inherit spike capacity from delay storms and must not
/// pin it for the rest of the run.
template <typename T>
void release_if_oversized(std::vector<T>& v, std::size_t target) {
  constexpr std::size_t kFloorCap = 1024;
  if (v.capacity() > kFloorCap && v.capacity() > 4 * target)
    v.shrink_to_fit();
}

}  // namespace

DelayScheduler::DelayScheduler(const SchedulerConfig& cfg, std::size_t n)
    : cfg_(cfg),
      n_(n),
      rng_(cfg.seed),
      shuffle_base_(Rng(cfg.seed).fork(0x5EED)),
      cursor_(n),
      future_(n),
      arrived_(n),
      merged_(n) {
  BA_REQUIRE(cfg.mode != SchedulerMode::kLockstep,
             "lockstep mode keeps no scheduler state");
  BA_REQUIRE(n > 0, "scheduler needs at least one receiver");
}

void DelayScheduler::draw_delays(const std::vector<ProcId>& receivers,
                                 const std::vector<std::uint32_t>& stage_off) {
  // delta_max = 0: every draw is below(1) == 0, and rng_ feeds nothing
  // but delay draws (the reorder shuffle forks from shuffle_base_), so
  // the whole per-envelope pass — draw and mark — can be skipped without
  // changing any observable byte. marks_ stays empty, which also turns
  // merge's peel into a no-op; only the scheduled counter must still
  // advance. This is what makes bounded_delay at delta_max=0 cost ≈
  // lockstep (the scheduler_overhead bench row).
  marks_.clear();
  release_if_oversized(marks_, receivers.size());
  if (cfg_.delta_max == 0) {
    stats_.scheduled += receivers.size();
    return;
  }
  // Staging placed each receiver's envelopes in send order, so walking
  // the receiver list with a per-receiver slot cursor visits every CSR
  // slot once: the draws stay in global send order and the marks land
  // aligned with the staged buckets.
  marks_.resize(receivers.size());
  std::copy(stage_off.begin(), stage_off.end() - 1, cursor_.begin());
  const std::uint64_t bound = static_cast<std::uint64_t>(cfg_.delta_max) + 1;
  for (const ProcId to : receivers) {
    const auto d = static_cast<std::uint32_t>(rng_.below(bound));
    marks_[cursor_[to]++] = d;
    stats_.scheduled += 1;
    if (d > 0) {
      stats_.delayed += 1;
      if (d > stats_.max_delay) stats_.max_delay = d;
    }
  }
}

void DelayScheduler::merge(ProcId p, const std::uint32_t* staged,
                           std::size_t count, std::size_t first_slot,
                           const SendEntry* entries, std::uint64_t round) {
  auto& fut = future_[p];
  auto& arrived = arrived_[p];
  auto& out = merged_[p];
  out.clear();
  // Peel this round's delayed sends off the staged bucket: they leave the
  // round's log as copies.
  const std::uint32_t* marks =
      marks_.empty() ? nullptr : marks_.data() + first_slot;
  if (marks != nullptr)
    for (std::size_t i = 0; i < count; ++i)
      if (marks[i] != 0) {
        const SendEntry& s = entries[staged[i]];
        fut.push_back(
            {round + 1 + marks[i], Arrival{s.payload, s.from, round}});
      }
  // Move arrivals due now into the arrival store, in queue order —
  // (send round, global send order) — and ref them in front of the
  // on-time traffic: older sends first, then this round's.
  arrived.clear();
  if (!fut.empty()) {
    const std::uint64_t due = round + 1;
    std::size_t w = 0;
    for (std::size_t i = 0; i < fut.size(); ++i) {
      if (fut[i].due == due) {
        const auto index = static_cast<std::uint32_t>(arrived.size());
        out.push_back(kArrivalRef | index);
        arrived.push_back(std::move(fut[i].msg));
      } else {
        if (w != i) fut[w] = std::move(fut[i]);
        ++w;
      }
    }
    fut.resize(w);
    release_if_oversized(fut, fut.size());
  }
  release_if_oversized(arrived, arrived.size());
  for (std::size_t i = 0; i < count; ++i)
    if (marks == nullptr || marks[i] == 0) out.push_back(staged[i]);
  release_if_oversized(out, out.size());
  // Reorder mode: permute the merged arrival order with a stream that is
  // a pure function of (seed, round, receiver) — forked, never drawn
  // from the shared generator, so the fan-out stays byte-identical at
  // any worker count. The counting sort downstream restores the inbox's
  // sender order; what the shuffle observably permutes is the relative
  // order of one sender's messages.
  if (cfg_.mode == SchedulerMode::kReorderRush && out.size() > 1) {
    Rng r = shuffle_base_.fork(round * n_ + p);
    r.shuffle(out);
  }
}

std::uint64_t DelayScheduler::in_flight() const {
  std::uint64_t total = 0;
  for (const auto& q : future_) total += q.size();
  return total;
}

}  // namespace ba
