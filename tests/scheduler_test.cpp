// Tests for the adversarial delay scheduler (net/scheduler.h): bounded
// delivery delay, the delta_max = 0 lockstep identity, the delivery-order
// canon under merged late arrivals, reordering, and the seeded draw
// sequence the determinism contract pins.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "net/network.h"
#include "net/scheduler.h"

namespace ba {
namespace {

SchedulerConfig bounded(std::size_t delta_max, std::uint64_t seed) {
  SchedulerConfig cfg;
  cfg.mode = SchedulerMode::kBoundedDelay;
  cfg.delta_max = delta_max;
  cfg.seed = seed;
  return cfg;
}

SchedulerConfig reordering(std::size_t delta_max, std::uint64_t seed) {
  SchedulerConfig cfg;
  cfg.mode = SchedulerMode::kReorderRush;
  cfg.delta_max = delta_max;
  cfg.seed = seed;
  return cfg;
}

TEST(DelayScheduler, DelaysMatchTheSeededDrawSequence) {
  // The contract: one delay draw per staged envelope, Rng(seed).below
  // (delta_max + 1), in global send order. The test replays the stream
  // itself and asserts every envelope lands exactly at send + 1 + delay.
  const std::size_t kDelta = 3;
  const std::uint64_t kSeed = 42;
  Network net(3, 1);
  net.set_scheduler(bounded(kDelta, kSeed));
  Rng expect(kSeed);
  // value -> expected delivery round, for 6 sends in round 0.
  std::map<std::uint64_t, std::uint64_t> due;
  std::uint64_t value = 100;
  for (ProcId from = 0; from < 3; ++from)
    for (ProcId to = 0; to < 3; ++to) {
      if (from == to) continue;
      net.send(from, to, make_value_payload(7, value, 16));
      due[value] = 1 + expect.below(kDelta + 1);
      ++value;
    }
  for (std::uint64_t r = 1; r <= 1 + kDelta; ++r) {
    net.advance_round();
    for (ProcId p = 0; p < 3; ++p)
      for (const auto& env : net.inbox(p)) {
        ASSERT_EQ(due.count(env.payload.words[0]), 1u);
        EXPECT_EQ(due[env.payload.words[0]], r)
            << "envelope " << env.payload.words[0]
            << " landed in the wrong round";
        due.erase(env.payload.words[0]);
      }
  }
  EXPECT_TRUE(due.empty()) << due.size() << " envelopes never delivered";
  EXPECT_EQ(net.scheduler()->in_flight(), 0u);
}

TEST(DelayScheduler, StatsCountScheduledAndDelayed) {
  const std::size_t kDelta = 3;
  const std::uint64_t kSeed = 42;
  Network net(3, 1);
  net.set_scheduler(bounded(kDelta, kSeed));
  Rng expect(kSeed);
  std::uint64_t delayed = 0, max_delay = 0;
  for (int i = 0; i < 6; ++i) {
    net.send(0, 1, make_value_payload(7, 1, 8));
    const std::uint64_t d = expect.below(kDelta + 1);
    delayed += d > 0 ? 1 : 0;
    max_delay = std::max(max_delay, d);
  }
  net.advance_round();
  const SchedulerStats& st = net.scheduler()->stats();
  EXPECT_EQ(st.scheduled, 6u);
  EXPECT_EQ(st.delayed, delayed);
  EXPECT_EQ(st.max_delay, max_delay);
}

TEST(DelayScheduler, DeltaZeroIsByteIdenticalToLockstep) {
  // delta_max = 0 draws below(1) == 0 for every envelope: the scheduler
  // path must reproduce the lockstep network envelope for envelope. This
  // identity is what lets the parity suite pin scheduler scenarios
  // against the historical lockstep fingerprints.
  Network lockstep(5, 1);
  Network sched(5, 1);
  sched.set_scheduler(bounded(0, 99));
  Rng rng(7);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 40; ++i) {
      const auto from = static_cast<ProcId>(rng.below(5));
      const auto to = static_cast<ProcId>(rng.below(5));
      const std::uint32_t tag = 50 + static_cast<std::uint32_t>(rng.below(3));
      const std::uint64_t v = rng.next();
      lockstep.send(from, to, make_value_payload(tag, v, 61));
      sched.send(from, to, make_value_payload(tag, v, 61));
    }
    lockstep.advance_round();
    sched.advance_round();
    for (ProcId p = 0; p < 5; ++p) {
      const auto& a = lockstep.inbox(p);
      const auto& b = sched.inbox(p);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].from, b[i].from);
        EXPECT_EQ(a[i].round, b[i].round);
        EXPECT_EQ(a[i].payload.tag, b[i].payload.tag);
        ASSERT_EQ(a[i].payload.words.size(), b[i].payload.words.size());
        for (std::size_t w = 0; w < a[i].payload.words.size(); ++w)
          EXPECT_EQ(a[i].payload.words[w], b[i].payload.words[w]);
      }
    }
  }
  EXPECT_EQ(sched.scheduler()->stats().delayed, 0u);
}

TEST(DelayScheduler, MergedInboxKeepsTheDeliveryCanon) {
  // Late arrivals merge ahead of on-time traffic, then the counting sort
  // restores sender order; within one sender the stable sort keeps older
  // sends first. Drive a delayed storm of mixed tags and assert the canon
  // at every receiver every round.
  const std::size_t n = 8;
  Network net(n, 2);
  net.set_scheduler(bounded(3, 1234));
  Rng rng(55);
  for (int round = 0; round < 8; ++round) {
    if (round < 5) {
      for (int i = 0; i < 100; ++i) {
        const auto from = static_cast<ProcId>(rng.below(n));
        const auto to = static_cast<ProcId>(rng.below(n));
        const std::uint32_t tag =
            10 + static_cast<std::uint32_t>(rng.below(3));
        net.send(from, to, make_value_payload(tag, rng.next(), 61));
      }
    }
    net.advance_round();
    for (ProcId p = 0; p < n; ++p) {
      const auto& in = net.inbox(p);
      for (std::size_t i = 1; i < in.size(); ++i) {
        const Envelope& a = in[i - 1];
        const Envelope& b = in[i];
        EXPECT_LE(a.from, b.from) << "sender order broken";
        if (a.from == b.from) {
          EXPECT_LE(a.round, b.round)
              << "older send delivered after a newer one";
        }
      }
    }
  }
  EXPECT_EQ(net.scheduler()->in_flight(), 0u);
}

TEST(DelayScheduler, EveryEnvelopeLandsWithinTheDelayBound) {
  const std::size_t n = 6, kDelta = 4;
  Network net(n, 1);
  net.set_scheduler(bounded(kDelta, 2024));
  Rng rng(3);
  std::size_t sent = 0, got = 0;
  for (int round = 0; round < 10; ++round) {
    if (round < 5) {
      for (int i = 0; i < 30; ++i) {
        net.send(static_cast<ProcId>(rng.below(n)),
                 static_cast<ProcId>(rng.below(n)),
                 make_value_payload(9, rng.next(), 32));
        ++sent;
      }
    }
    net.advance_round();
    for (ProcId p = 0; p < n; ++p)
      for (const auto& env : net.inbox(p)) {
        ++got;
        const std::uint64_t age = net.round() - env.round;
        EXPECT_GE(age, 1u);
        EXPECT_LE(age, 1 + kDelta);
      }
  }
  EXPECT_EQ(got, sent) << "conservation: every send delivered exactly once";
  EXPECT_EQ(net.scheduler()->in_flight(), 0u);
}

TEST(DelayScheduler, ReorderPreservesTheSortedInboxContract) {
  // Reordering happens before the counting sort, so the observable
  // permutation is confined to one sender's messages — the inbox's sender
  // order must survive.
  const std::size_t n = 6;
  Network net(n, 1);
  net.set_scheduler(reordering(2, 31337));
  Rng rng(11);
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 60; ++i) {
      const std::uint32_t tag = 20 + static_cast<std::uint32_t>(rng.below(2));
      net.send(static_cast<ProcId>(rng.below(n)),
               static_cast<ProcId>(rng.below(n)),
               make_value_payload(tag, rng.next(), 61));
    }
    net.advance_round();
    for (ProcId p = 0; p < n; ++p) {
      const auto& in = net.inbox(p);
      for (std::size_t i = 1; i < in.size(); ++i)
        EXPECT_LE(in[i - 1].from, in[i].from);
    }
  }
}

TEST(DelayScheduler, InstallRules) {
  // Must install before traffic; a lockstep config is a reset, not an
  // allocation.
  Network net(3, 1);
  net.send(0, 1, make_value_payload(7, 1, 8));
  EXPECT_THROW(net.set_scheduler(bounded(1, 1)), std::logic_error);
  Network fresh(3, 1);
  fresh.set_scheduler(SchedulerConfig{});  // kLockstep
  EXPECT_EQ(fresh.scheduler(), nullptr);
  fresh.set_scheduler(bounded(1, 1));
  EXPECT_NE(fresh.scheduler(), nullptr);
  fresh.set_scheduler(SchedulerConfig{});
  EXPECT_EQ(fresh.scheduler(), nullptr);
}

TEST(DelayScheduler, QuietRoundsStillDeliverDueArrivals) {
  // A receiver with no fresh traffic must still get its due arrivals:
  // the merge runs before delivery's empty-bucket early-out.
  const std::size_t kDelta = 3;
  const std::uint64_t kSeed = 42;
  Rng probe(kSeed);
  const std::uint64_t d = probe.below(kDelta + 1);
  ASSERT_GT(d, 0u);
  Network net(3, 1);
  net.set_scheduler(bounded(kDelta, kSeed));
  net.send(0, 1, make_value_payload(7, 55, 8));
  for (std::uint64_t r = 0; r < d; ++r) {
    net.advance_round();
    EXPECT_TRUE(net.inbox(1).empty());
  }
  net.advance_round();  // round 1 + d: the envelope is due
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].payload.words[0], 55u);
}

}  // namespace
}  // namespace ba
