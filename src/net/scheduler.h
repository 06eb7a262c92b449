// Adversarial delay scheduler: partial-synchrony network models on top of
// the lockstep-synchronous round simulator (net/network.h).
//
// King–Saia's model is synchronous — every message sent in round r arrives
// at the start of round r+1 — but the hardest follow-up axis for
// sub-quadratic BA is relaxed timing (see "Asynchronous and
// partial-synchrony network models" in ROADMAP.md). The scheduler bounds
// that relaxation by a delay budget: each staged envelope is assigned a
// delivery delay in [0, delta_max] rounds, drawn from Rng(scheduler_seed),
// and held in a per-receiver future queue until its due round. delta_max=0
// degenerates to lockstep byte for byte (every draw is below(1) == 0), so
// the entire existing parity baseline doubles as the scheduler's own
// delta_max=0 regression oracle.
//
// Modes:
//  * kLockstep     — no scheduler; Network never allocates one.
//  * kBoundedDelay — per-envelope random delay in [0, delta_max].
//  * kReorderRush  — bounded delay, plus within-round arrival reordering:
//    each receiver's merged bucket is shuffled before the inbox sort, so
//    messages from one sender arrive in an adversarial order. The
//    name is the scenario value ("reorder_rush"); the rushing itself is
//    the drivers' VoteRusher step, which runs identically in every mode.
//
// Determinism contract (the parity suite extends verbatim): delay draws
// happen in ONE serial pass over the round's receiver list, in global send
// order, before the delivery fan-out — the parallel per-receiver merge is
// draw-free. Reorder shuffles use a per-(round, receiver) stream forked
// from Rng(seed) — the same salt/fork discipline as the streaming sendOpen
// garbage streams — so every receiver's merged bucket is a pure function
// of (scheduler seed, round, receiver, its own traffic) and runs are
// byte-identical at any worker count.
//
// Delivery-order canon: arrivals due in a round are merged *in front of*
// the round's on-time traffic, in (send round, global send order) — older
// sends first. The merged bucket then flows through the normal counting
// sort, so inboxes keep their sender order; what delay and reorder
// observably change is which round a message lands in and the relative
// order of one sender's messages.
//
// Storage: the merge works on 4-byte message refs (net/network.h). A
// message delayed past its send round is copied out of the round's send
// log into the receiver's future queue, since the log is recycled two
// rounds later. When it falls due it moves to the receiver's arrival
// store, which backs its inbox refs (kArrivalRef | index) until the next
// round is delivered.
//
// Custody rule: once advance_round() moves a message into a future
// queue, the scheduler holds the only copy and nothing reads it until it
// falls due and lands in its receiver's inbox. The network offers no
// pending-traffic view, so a delayed message is never visible in transit.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "net/network.h"

namespace ba {

enum class SchedulerMode {
  kLockstep,      ///< synchronous; Network keeps no scheduler state
  kBoundedDelay,  ///< random per-envelope delay in [0, delta_max]
  kReorderRush,   ///< bounded delay + per-receiver arrival reordering
};

struct SchedulerConfig {
  SchedulerMode mode = SchedulerMode::kLockstep;
  std::size_t delta_max = 0;   ///< max extra delivery rounds per envelope
  std::uint64_t seed = 0;      ///< delay-draw / reorder-shuffle stream
};

/// Serial-pass counters (updated only by draw_delays, read after a run).
struct SchedulerStats {
  std::uint64_t scheduled = 0;  ///< envelopes that received a delay draw
  std::uint64_t delayed = 0;    ///< draws with delay > 0
  std::uint64_t max_delay = 0;  ///< largest delay drawn
};

class DelayScheduler {
 public:
  /// n receivers; cfg.mode must not be kLockstep (lockstep means "no
  /// scheduler object at all" — see Network::set_scheduler).
  DelayScheduler(const SchedulerConfig& cfg, std::size_t n);

  const SchedulerConfig& config() const { return cfg_; }
  const SchedulerStats& stats() const { return stats_; }

  /// Driver-side serial pre-pass: one delay draw per envelope, in global
  /// send order (`receivers` is the round's receiver list, `stage_off`
  /// the staged CSR offsets from Network). Must run before the delivery
  /// fan-out of the round that is about to advance.
  void draw_delays(const std::vector<ProcId>& receivers,
                   const std::vector<std::uint32_t>& stage_off);

  /// Per-receiver merge, run from the delivery fan-out (touches only
  /// p-indexed scheduler state): `staged[0, count)` is p's staged bucket
  /// of refs into `entries`, at CSR slot `first_slot`. Copies this round's
  /// delayed messages into p's future queue, moves arrivals due at
  /// round+1 into p's arrival store, and writes merged(p): the arrival
  /// refs in front of the on-time refs, shuffled in kReorderRush with
  /// the per-(round, p) forked stream. Draw-free with respect to the
  /// shared delay generator.
  void merge(ProcId p, const std::uint32_t* staged, std::size_t count,
             std::size_t first_slot, const SendEntry* entries,
             std::uint64_t round);

  /// p's refs to deliver this round, written by merge().
  const std::vector<std::uint32_t>& merged(ProcId p) const {
    return merged_[p];
  }
  /// p's arrival store: the messages behind its kArrivalRef refs, valid
  /// until its next merge().
  const std::vector<Arrival>& arrivals(ProcId p) const {
    return arrived_[p];
  }

  /// Envelopes currently held in future queues (serial read; sums the
  /// per-receiver queues).
  std::uint64_t in_flight() const;

 private:
  struct Delayed {
    std::uint64_t due = 0;  ///< round at whose start the message lands
    Arrival msg;
  };

  SchedulerConfig cfg_;
  std::size_t n_;
  Rng rng_;           ///< serial delay draws (global send order)
  Rng shuffle_base_;  ///< forked per (round, receiver) for reordering
  SchedulerStats stats_;
  /// Delay marks for the round being advanced, aligned with the staged
  /// CSR slots (written serially by draw_delays, read by the merges).
  std::vector<std::uint32_t> marks_;
  std::vector<std::uint32_t> cursor_;  ///< draw_delays' per-receiver slots
  /// Per-receiver future-round queue, insertion-ordered: appends happen
  /// in (send round, global send order), so the due subsequence is
  /// already in delivery canon when merge extracts it.
  std::vector<std::vector<Delayed>> future_;
  std::vector<std::vector<Arrival>> arrived_;
  std::vector<std::vector<std::uint32_t>> merged_;
};

}  // namespace ba
