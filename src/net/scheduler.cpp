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
      marks_(n),
      future_(n) {
  BA_REQUIRE(cfg.mode != SchedulerMode::kLockstep,
             "lockstep mode keeps no scheduler state");
  BA_REQUIRE(n > 0, "scheduler needs at least one receiver");
}

void DelayScheduler::draw_delays(const std::vector<PendingRef>& log) {
  // The staging fill appends each envelope to its bucket and writes its
  // ref at its send position, so the log visits each receiver's bucket
  // indices in order 0, 1, 2, … —
  // a push_back per ref rebuilds the bucket-aligned mark array while the
  // draws stay in global send order (the one serial pass; the delivery
  // fan-out below is draw-free).
  // delta_max = 0: every draw is below(1) == 0, and rng_ feeds nothing
  // but delay draws (the reorder shuffle forks from shuffle_base_), so
  // the whole per-envelope pass — draw, alignment check, mark push — can
  // be skipped without changing any observable byte. marks_ stays empty,
  // which also turns merge_bucket's peel into a no-op; only the scheduled
  // counter must still advance. This is what makes bounded_delay at
  // delta_max=0 cost ≈ lockstep (the scheduler_overhead bench row).
  if (cfg_.delta_max == 0) {
    stats_.scheduled += log.size();
    return;
  }
  const std::uint64_t bound = static_cast<std::uint64_t>(cfg_.delta_max) + 1;
  for (const PendingRef& r : log) {
    const auto d = static_cast<std::uint32_t>(rng_.below(bound));
    BA_ENSURE(marks_[r.to].size() == r.index,
              "send log out of step with staging buckets");
    marks_[r.to].push_back(d);
    stats_.scheduled += 1;
    if (d > 0) {
      stats_.delayed += 1;
      if (d > stats_.max_delay) stats_.max_delay = d;
    }
  }
}

void DelayScheduler::merge_bucket(ProcId p, std::vector<Envelope>& stage,
                                  std::uint64_t round) {
  auto& marks = marks_[p];
  auto& fut = future_[p];
  // Peel this round's delayed sends out of the staged bucket (stable
  // in-place compaction of the on-time remainder).
  if (!marks.empty()) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < stage.size(); ++i) {
      if (marks[i] == 0) {
        if (w != i) stage[w] = std::move(stage[i]);
        ++w;
      } else {
        fut.push_back({round + 1 + marks[i], std::move(stage[i])});
      }
    }
    stage.resize(w);
    marks.clear();
    release_if_oversized(marks, 0);
  }
  // Pull arrivals due now in front of the on-time traffic. The queue is
  // insertion-ordered — (send round, global send order) — so appending
  // the due subsequence and rotating it to the front lands the merged
  // bucket in delivery canon: older sends first, then this round's.
  if (!fut.empty()) {
    const std::uint64_t due = round + 1;
    const std::size_t on_time = stage.size();
    std::size_t w = 0;
    for (std::size_t i = 0; i < fut.size(); ++i) {
      if (fut[i].due == due) {
        stage.push_back(std::move(fut[i].env));
      } else {
        if (w != i) fut[w] = std::move(fut[i]);
        ++w;
      }
    }
    fut.resize(w);
    if (stage.size() != on_time)
      std::rotate(stage.begin(),
                  stage.begin() + static_cast<std::ptrdiff_t>(on_time),
                  stage.end());
    release_if_oversized(fut, fut.size());
  }
  // Reorder mode: permute the merged arrival order with a stream that is
  // a pure function of (seed, round, receiver) — forked, never drawn
  // from the shared generator, so the fan-out stays byte-identical at
  // any worker count. The counting sort downstream restores the (tag,
  // sender) inbox canon; what the shuffle observably permutes is the
  // relative order of same-(tag, sender) duplicates.
  if (cfg_.mode == SchedulerMode::kReorderRush && stage.size() > 1) {
    Rng r = shuffle_base_.fork(round * n_ + p);
    r.shuffle(stage);
  }
}

std::uint64_t DelayScheduler::in_flight() const {
  std::uint64_t total = 0;
  for (const auto& q : future_) total += q.size();
  return total;
}

}  // namespace ba
