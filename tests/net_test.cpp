// Tests for the synchronous network: delivery semantics, corruption
// budget, bit accounting, and a from-the-definition delivery oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/pool.h"
#include "net/adversary.h"
#include "net/network.h"
#include "net/scheduler.h"
#include "transport/transport.h"

namespace ba {
namespace {

/// The oracle for Network::charge_multicast and charge_table: one
/// message's ledger charge, content bits plus the header on both ends, as
/// send() charges it.
void charge_bulk(Network& net, ProcId from, ProcId to,
                 std::size_t content_bits) {
  net.ledger().charge_send(from, content_bits + kHeaderBits);
  net.ledger().charge_recv(to, content_bits + kHeaderBits);
}

TEST(Network, DeliversNextRound) {
  Network net(4, 1);
  net.send(0, 1, make_value_payload(7, 42, 8));
  EXPECT_TRUE(net.inbox(1).empty());  // not yet delivered
  net.advance_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].from, 0u);
  EXPECT_EQ(net.inbox(1)[0].payload.words[0], 42u);
}

TEST(Network, InboxClearedEachRound) {
  Network net(4, 1);
  net.send(0, 1, make_value_payload(7, 1, 1));
  net.advance_round();
  EXPECT_EQ(net.inbox(1).size(), 1u);
  net.advance_round();
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(Network, InboxSortedBySender) {
  Network net(5, 1);
  net.send(3, 0, make_value_payload(7, 3, 2));
  net.send(1, 0, make_value_payload(7, 1, 2));
  net.send(2, 0, make_value_payload(7, 2, 2));
  net.advance_round();
  ASSERT_EQ(net.inbox(0).size(), 3u);
  EXPECT_EQ(net.inbox(0)[0].from, 1u);
  EXPECT_EQ(net.inbox(0)[1].from, 2u);
  EXPECT_EQ(net.inbox(0)[2].from, 3u);
}

TEST(Network, DuplicatesFromOneSenderStayAdjacentAndOrdered) {
  Network net(3, 1);
  net.send(1, 0, make_value_payload(7, 10, 4));
  net.send(2, 0, make_value_payload(7, 99, 4));
  net.send(1, 0, make_value_payload(7, 11, 4));
  net.advance_round();
  ASSERT_EQ(net.inbox(0).size(), 3u);
  EXPECT_EQ(net.inbox(0)[0].payload.words[0], 10u);  // first msg from 1
  EXPECT_EQ(net.inbox(0)[1].payload.words[0], 11u);  // second msg from 1
  EXPECT_EQ(net.inbox(0)[2].from, 2u);
}

TEST(Network, RoundCounterAdvances) {
  Network net(2, 1);
  EXPECT_EQ(net.round(), 0u);
  net.advance_round();
  net.advance_round();
  EXPECT_EQ(net.round(), 2u);
}

TEST(Network, CorruptionBudgetEnforced) {
  Network net(9, 2);
  net.corrupt(0);
  net.corrupt(1);
  EXPECT_EQ(net.corruption_budget_left(), 0u);
  EXPECT_THROW(net.corrupt(2), std::logic_error);
  net.corrupt(1);  // re-corrupting is a no-op
  EXPECT_EQ(net.corrupt_count(), 2u);
}

TEST(Network, GoodProcsExcludesCorrupt) {
  Network net(5, 2);
  net.corrupt(2);
  auto good = net.good_procs();
  EXPECT_EQ(good.size(), 4u);
  for (auto p : good) EXPECT_NE(p, 2u);
}

TEST(Network, MixedTagSpikeCapacityIsReleased) {
  // Stream-and-release after a spike: the round buffers (send logs, ref
  // arrays) all grew to the spike, and a small mixed-tag round after it
  // must leave none of them holding spike capacity.
  Network net(2, 1);
  const std::size_t kSpike = 5000;
  for (std::size_t i = 0; i < kSpike; ++i)
    net.send(1, 0, make_value_payload(10 + (i % 2), i, 16));
  net.advance_round();
  ASSERT_EQ(net.inbox(0).size(), kSpike);
  // Small mixed-tag round: one sender, so send order is inbox order.
  net.send(1, 0, make_value_payload(10, 1, 16));
  net.send(1, 0, make_value_payload(11, 2, 16));
  net.advance_round();
  ASSERT_EQ(net.inbox(0).size(), 2u);
  EXPECT_EQ(net.inbox(0)[0].payload.tag, 10u);
  EXPECT_EQ(net.inbox(0)[0].payload.words[0], 1u);
  EXPECT_EQ(net.inbox(0)[1].payload.tag, 11u);
  EXPECT_EQ(net.inbox(0)[1].payload.words[0], 2u);
  EXPECT_LE(net.retained_capacity(), 1024u)
      << "spike capacity survived the small round";
}

TEST(Network, MixedTagInboxIsSenderOrdered) {
  // One inbox for every tag, stably sorted by sender: a tag filter over
  // it yields that tag's envelopes in sender order, and duplicates from
  // one sender stay in send order across tags.
  Network net(4, 1);
  net.send(2, 0, make_value_payload(9, 20, 4));
  net.send(1, 0, make_value_payload(7, 10, 4));
  net.send(3, 0, make_value_payload(7, 30, 4));
  net.send(1, 0, make_value_payload(9, 11, 4));
  net.send(1, 0, make_value_payload(7, 12, 4));
  net.advance_round();
  const InboxView box = net.inbox(0);
  const std::vector<std::tuple<ProcId, std::uint32_t, std::uint64_t>> want =
      {{1, 7, 10}, {1, 9, 11}, {1, 7, 12}, {2, 9, 20}, {3, 7, 30}};
  ASSERT_EQ(box.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_EQ(std::make_tuple(box[i].from, box[i].payload.tag,
                              box[i].payload.words[0]),
              want[i])
        << i;
  EXPECT_TRUE(net.inbox(1).empty());
}

TEST(Network, ChargeMulticastMatchesChargeBulk) {
  // charge_multicast must be bit-for-bit equivalent to one charge_bulk per
  // receiver, including message counts, across interleaved senders and
  // mid-round reads.
  Network a(4, 1), b(4, 1);
  const std::vector<ProcId> fan = {1, 2, 3};
  for (int rep = 0; rep < 3; ++rep) {
    for (ProcId to : fan) charge_bulk(a, 0, to, 61);
    b.charge_multicast(0, fan, 61);
    charge_bulk(a, 2, 1, 7);  // another sender in between
    const ProcId one = 1;
    b.charge_multicast(2, &one, 1, 7);
  }
  // The ledger holds every charge before advance_round.
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_EQ(a.ledger().bits_sent(p), b.ledger().bits_sent(p));
    EXPECT_EQ(a.ledger().msgs_sent(p), b.ledger().msgs_sent(p));
    EXPECT_EQ(a.ledger().bits_received(p), b.ledger().bits_received(p));
  }
  a.advance_round();
  b.advance_round();
  EXPECT_EQ(a.ledger().total_bits_sent(std::vector<bool>(4, false), false),
            b.ledger().total_bits_sent(std::vector<bool>(4, false), false));
  // Every receiver is validated before anything is charged.
  EXPECT_THROW(b.charge_multicast(0, std::vector<ProcId>{1, 4}, 61),
               std::logic_error);
  EXPECT_EQ(b.ledger().bits_sent(0), a.ledger().bits_sent(0));
  EXPECT_EQ(b.ledger().bits_received(1), a.ledger().bits_received(1));
}

TEST(Network, ChargeTableMatchesChargeBulk) {
  // One charge_table call must equal the charge_bulk calls it stands
  // for, on all three ledger columns, also when it lands between two
  // charges of another sender.
  const std::size_t n = 5;
  const std::size_t bits = 61;
  Network a(n, 1), b(n, 1);
  // Messages 0->1 x2, 0->3, 2->1, 4->0 x3: rows are per-processor totals.
  const std::vector<std::pair<ProcId, ProcId>> msgs = {
      {0, 1}, {0, 1}, {0, 3}, {2, 1}, {4, 0}, {4, 0}, {4, 0}};
  const std::vector<ChargeRow> rows = {
      {0, 3, 3}, {1, 0, 3}, {2, 1, 0}, {3, 0, 1}, {4, 3, 0}};
  charge_bulk(a, 3, 2, 9);  // another sender's charge before the table
  charge_bulk(b, 3, 2, 9);
  for (const auto& [from, to] : msgs) charge_bulk(a, from, to, bits);
  b.charge_table(rows, bits);
  charge_bulk(a, 3, 4, 9);
  charge_bulk(b, 3, 4, 9);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(a.ledger().bits_sent(p), b.ledger().bits_sent(p)) << p;
    EXPECT_EQ(a.ledger().msgs_sent(p), b.ledger().msgs_sent(p)) << p;
    EXPECT_EQ(a.ledger().bits_received(p), b.ledger().bits_received(p)) << p;
  }
  EXPECT_EQ(b.ledger().msgs_sent(3), 2u);
  EXPECT_EQ(b.ledger().msgs_sent(0), 3u);
  // The range check of the per-message charges survives aggregation.
  EXPECT_THROW(b.charge_table({{static_cast<ProcId>(n), 1, 0}}, bits),
               std::logic_error);
}

TEST(Network, LedgerChargesSenderAndReceiver) {
  Network net(3, 1);
  Payload p = make_value_payload(7, 5, 10);  // 10 content bits
  const std::size_t bits = p.bits();
  net.send(0, 1, std::move(p));
  EXPECT_EQ(net.ledger().bits_sent(0), bits);
  EXPECT_EQ(net.ledger().msgs_sent(0), 1u);
  EXPECT_EQ(net.ledger().bits_received(1), 0u);  // charged on delivery
  net.advance_round();
  EXPECT_EQ(net.ledger().bits_received(1), bits);
}

TEST(Network, ChargeBulkMatchesSend) {
  Network a(3, 1), b(3, 1);
  Payload p = make_value_payload(7, 5, 10);
  a.send(0, 1, p);
  a.advance_round();
  charge_bulk(b, 0, 1, 10);
  EXPECT_EQ(a.ledger().bits_sent(0), b.ledger().bits_sent(0));
  EXPECT_EQ(a.ledger().bits_received(1), b.ledger().bits_received(1));
}

TEST(Network, RejectsBadIds) {
  Network net(3, 1);
  EXPECT_THROW(net.send(0, 5, Payload{}), std::logic_error);
  EXPECT_THROW(net.send(5, 0, Payload{}), std::logic_error);
  EXPECT_THROW(net.corrupt(9), std::logic_error);
}

// ------------------------------------------------- delivery oracle --
//
// A from-the-definition model of the network: every message is a plain
// owned record, each receiver's round is its messages in send order
// (arrivals due from earlier rounds first, then shuffled per receiver in
// reorder mode), stably sorted by sender. The network's delivery by
// reference must reproduce it exactly — inbox streams, ledger rows and
// the transport's on_send sequence (global send order) — at any worker
// count.

/// One message as the model and the comparisons see it.
struct Msg {
  ProcId from = 0;
  ProcId to = 0;
  std::uint64_t round = 0;
  std::uint32_t tag = 0;
  std::vector<std::uint64_t> words;
  std::size_t content_bits = 0;

  static Msg of(const Envelope& e) {
    return Msg{e.from,
               e.to,
               e.round,
               e.payload.tag,
               std::vector<std::uint64_t>(e.payload.words.begin(),
                                          e.payload.words.end()),
               e.payload.content_bits};
  }
  friend bool operator==(const Msg& a, const Msg& b) {
    return std::tie(a.from, a.to, a.round, a.tag, a.words, a.content_bits) ==
           std::tie(b.from, b.to, b.round, b.tag, b.words, b.content_bits);
  }
};

std::ostream& operator<<(std::ostream& os, const Msg& m) {
  return os << "{from=" << m.from << " to=" << m.to << " round=" << m.round
            << " tag=" << m.tag << " words=" << m.words.size() << "}";
}

/// Transport that records every on_send envelope and round barrier.
class RecordingTransport final : public Transport {
 public:
  std::vector<Msg> sent;
  std::vector<std::uint64_t> barriers;
  std::size_t bucketed = 0;  ///< envelopes sync_round saw per receiver

  const char* backend_name() const override { return "recording"; }
  void on_attach(std::size_t) override {}
  void on_send(const Envelope& e) override { sent.push_back(Msg::of(e)); }
  void sync_round(std::uint64_t round,
                  std::vector<std::vector<Envelope>>& staging) override {
    barriers.push_back(round);
    for (ProcId p = 0; p < staging.size(); ++p)
      for (const Envelope& e : staging[p]) {
        EXPECT_EQ(e.to, p);
        EXPECT_EQ(e.round, round);
        ++bucketed;
      }
  }
  const TransportStats& stats() const override { return stats_; }

 private:
  TransportStats stats_;
};

TEST(Network, MulticastEqualsPerReceiverSends) {
  // One multicast to k receivers (a duplicate and the sender itself
  // included) must leave ledger rows, inboxes, and the global send order
  // exactly as k send() calls do, interleaved with other traffic.
  const std::vector<ProcId> to{4, 1, 6, 1, 0, 3};
  Network a(7, 2), b(7, 2);
  RecordingTransport ta, tb;
  a.set_transport(&ta);
  b.set_transport(&tb);
  for (Network* net : {&a, &b}) {
    net->corrupt(6);
    net->send(2, 1, make_value_payload(7, 1, 8));
  }
  a.multicast(0, to, make_words_payload(9, {5, 6, 7}));
  for (ProcId r : to) b.send(0, r, make_words_payload(9, {5, 6, 7}));
  for (Network* net : {&a, &b}) {
    net->send(6, 1, make_value_payload(7, 2, 8));
    net->corrupt(4);
  }
  a.advance_round();
  b.advance_round();
  ASSERT_EQ(ta.sent.size(), 8u);  // 2 -> 1, the six copies, 6 -> 1
  EXPECT_EQ(ta.sent, tb.sent);
  for (std::size_t i = 0; i < to.size(); ++i) {
    EXPECT_EQ(ta.sent[1 + i].from, 0u) << i;
    EXPECT_EQ(ta.sent[1 + i].to, to[i]) << i;
  }
  for (ProcId p = 0; p < 7; ++p) {
    EXPECT_EQ(a.ledger().bits_sent(p), b.ledger().bits_sent(p)) << p;
    EXPECT_EQ(a.ledger().msgs_sent(p), b.ledger().msgs_sent(p)) << p;
    EXPECT_EQ(a.ledger().bits_received(p), b.ledger().bits_received(p)) << p;
    ASSERT_EQ(a.inbox(p).size(), b.inbox(p).size()) << p;
    for (std::size_t i = 0; i < a.inbox(p).size(); ++i) {
      const Envelope& x = a.inbox(p)[i];
      const Envelope& y = b.inbox(p)[i];
      EXPECT_EQ(x.from, y.from);
      EXPECT_EQ(x.to, y.to);
      EXPECT_EQ(x.round, y.round);
      EXPECT_EQ(x.payload.tag, y.payload.tag);
      EXPECT_EQ(x.payload.words, y.payload.words);
      EXPECT_EQ(x.payload.content_bits, y.payload.content_bits);
    }
  }
  EXPECT_EQ(a.ledger().msgs_sent(0), to.size());
  EXPECT_EQ(a.inbox(1).size(), 4u);  // 0 twice, 2, 6
}

TEST(Network, MulticastRejectsBadReceiverBeforeAnyEffect) {
  Network net(4, 1);
  RecordingTransport transport;
  net.set_transport(&transport);
  net.corrupt(3);
  const std::vector<ProcId> to{1, 3, 9};
  EXPECT_THROW(net.multicast(0, to, make_value_payload(7, 1, 8)),
               std::logic_error);
  EXPECT_THROW(net.multicast(5, {1}, make_value_payload(7, 1, 8)),
               std::logic_error);
  EXPECT_EQ(net.ledger().msgs_sent(0), 0u);
  EXPECT_EQ(net.ledger().bits_sent(0), 0u);
  net.advance_round();
  EXPECT_TRUE(transport.sent.empty());
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_TRUE(net.inbox(p).empty()) << p;
    EXPECT_EQ(net.ledger().bits_received(p), 0u) << p;
  }
}

class NetworkModel {
 public:
  NetworkModel(std::size_t n, const SchedulerConfig& cfg)
      : n_(n),
        cfg_(cfg),
        future_(n),
        inbox_(n),
        sent_bits_(n, 0),
        sent_msgs_(n, 0),
        recv_bits_(n, 0),
        delays_(cfg.seed),
        shuffle_base_(Rng(cfg.seed).fork(0x5EED)) {}

  void send(ProcId from, ProcId to, const Payload& p) {
    Msg m{from, to, round_, p.tag,
          std::vector<std::uint64_t>(p.words.begin(), p.words.end()),
          p.content_bits};
    pending_.push_back(m);
    sent_log_.push_back(m);
    sent_bits_[from] += p.bits();
    sent_msgs_[from] += 1;
  }

  void advance() {
    const bool delays = cfg_.mode != SchedulerMode::kLockstep;
    std::vector<std::vector<Msg>> on_time(n_);
    std::vector<std::vector<std::pair<std::uint64_t, Msg>>> delayed(n_);
    for (const Msg& m : pending_) {
      const std::uint64_t d = delays ? delays_.below(cfg_.delta_max + 1) : 0;
      if (d == 0)
        on_time[m.to].push_back(m);
      else
        delayed[m.to].emplace_back(round_ + 1 + d, m);
    }
    for (ProcId p = 0; p < n_; ++p) {
      // Queue order: earlier rounds first, then this round in send order.
      for (auto& dm : delayed[p]) future_[p].push_back(std::move(dm));
      std::vector<Msg> got;
      std::vector<std::pair<std::uint64_t, Msg>> keep;
      for (auto& [due, m] : future_[p]) {
        if (due == round_ + 1)
          got.push_back(m);
        else
          keep.emplace_back(due, m);
      }
      future_[p] = std::move(keep);
      for (Msg& m : on_time[p]) got.push_back(std::move(m));
      if (cfg_.mode == SchedulerMode::kReorderRush && got.size() > 1) {
        Rng r = shuffle_base_.fork(round_ * n_ + p);
        r.shuffle(got);
      }
      std::stable_sort(got.begin(), got.end(), [](const Msg& a, const Msg& b) {
        return a.from < b.from;
      });
      for (const Msg& m : got) recv_bits_[p] += m.content_bits + kHeaderBits;
      inbox_[p] = std::move(got);
    }
    pending_.clear();
    ++round_;
  }

  const std::vector<Msg>& inbox(ProcId p) const { return inbox_[p]; }
  const std::vector<Msg>& sent_log() const { return sent_log_; }
  std::uint64_t bits_sent(ProcId p) const { return sent_bits_[p]; }
  std::uint64_t msgs_sent(ProcId p) const { return sent_msgs_[p]; }
  std::uint64_t bits_received(ProcId p) const { return recv_bits_[p]; }

 private:
  std::size_t n_;
  SchedulerConfig cfg_;
  std::uint64_t round_ = 0;
  std::vector<Msg> pending_;
  std::vector<Msg> sent_log_;
  std::vector<std::vector<std::pair<std::uint64_t, Msg>>> future_;
  std::vector<std::vector<Msg>> inbox_;
  std::vector<std::uint64_t> sent_bits_, sent_msgs_, recv_bits_;
  Rng delays_;
  Rng shuffle_base_;
};

/// Drives one random traffic script through a Network and the model at
/// the current pool width and compares everything observable after every
/// round. Large rounds cross the parallel staging threshold; empty rounds
/// and mid-round corruptions are mixed in.
void run_delivery_oracle(const SchedulerConfig& cfg, std::uint64_t seed) {
  constexpr std::size_t n = 300, kRounds = 12;
  Network net(n, n / 4);
  net.set_scheduler(cfg);
  RecordingTransport transport;
  net.set_transport(&transport);
  NetworkModel model(n, cfg);
  Rng rng(seed);
  std::size_t total_sent = 0;
  const auto random_payload = [&] {
    Payload p;
    p.tag = 3 + 2 * static_cast<std::uint32_t>(rng.below(4));
    const std::uint64_t words = rng.below(5);  // 3+ words spill to heap
    for (std::uint64_t w = 0; w < words; ++w) p.words.push_back(rng.next());
    p.content_bits = rng.below(200);
    return p;
  };
  // This round's send() / multicast() calls, for the rushing echoes.
  std::vector<std::pair<ProcId, Payload>> round_sends;
  for (std::size_t round = 0; round < kRounds; ++round) {
    round_sends.clear();
    const bool empty = rng.bernoulli(0.2);
    const std::size_t phases = empty ? 0 : 1 + rng.below(3);
    for (std::size_t phase = 0; phase < phases; ++phase) {
      const std::size_t calls = 20 + rng.below(round % 3 == 0 ? 400 : 40);
      for (std::size_t c = 0; c < calls; ++c) {
        const auto from = static_cast<ProcId>(rng.below(n));
        const Payload p = random_payload();
        if (rng.bernoulli(0.5)) {
          const auto to = static_cast<ProcId>(rng.below(n));
          net.send(from, to, p);
          model.send(from, to, p);
          round_sends.emplace_back(from, p);
          ++total_sent;
          continue;
        }
        std::vector<ProcId> to(1 + rng.below(12));
        for (ProcId& r : to) r = static_cast<ProcId>(rng.below(n));
        to.push_back(to.front());  // duplicate receiver
        if (rng.bernoulli(0.3)) to.push_back(from);  // sender included
        net.multicast(from, to, p);
        for (ProcId r : to) model.send(from, r, p);
        round_sends.emplace_back(from, p);
        total_sent += to.size();
      }
      // Rushed injections follow the phase's sends: corrupt senders echo
      // payloads already sent this round and send fresh ones.
      std::size_t echoes = 0;
      for (const auto& [from, sent] : round_sends) {
        if (echoes == 10) break;
        if (!net.is_corrupt(from)) continue;
        const Payload echo = sent;
        const auto to = static_cast<ProcId>(rng.below(n));
        net.send(from, to, echo);
        model.send(from, to, echo);
        ++echoes;
        ++total_sent;
      }
      for (ProcId p = 0; p < n; p += 7) {
        if (!net.is_corrupt(p)) continue;
        const Payload fresh = random_payload();
        const auto to = static_cast<ProcId>(rng.below(n));
        net.send(p, to, fresh);
        model.send(p, to, fresh);
        ++total_sent;
      }
      if (net.corruption_budget_left() > 0 && rng.bernoulli(0.7))
        net.corrupt(static_cast<ProcId>(rng.below(n)));
    }
    net.advance_round();
    model.advance();
    for (ProcId p = 0; p < n; ++p) {
      const InboxView box = net.inbox(p);
      const std::vector<Msg>& want = model.inbox(p);
      ASSERT_EQ(box.size(), want.size()) << "round " << round << " to " << p;
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(Msg::of(box[i]), want[i])
            << "round " << round << " to " << p << " slot " << i;
      EXPECT_EQ(net.ledger().bits_sent(p), model.bits_sent(p)) << p;
      EXPECT_EQ(net.ledger().msgs_sent(p), model.msgs_sent(p)) << p;
      EXPECT_EQ(net.ledger().bits_received(p), model.bits_received(p)) << p;
    }
  }
  EXPECT_EQ(transport.sent, model.sent_log());
  EXPECT_EQ(transport.bucketed, total_sent);
  ASSERT_EQ(transport.barriers.size(), kRounds);
  for (std::size_t r = 0; r < kRounds; ++r) EXPECT_EQ(transport.barriers[r], r);
}

void run_delivery_oracle_at_widths(const SchedulerConfig& cfg) {
  for (std::size_t workers : {1, 2, 8}) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    Pool::set_threads(workers);
    run_delivery_oracle(cfg, 1234);
    run_delivery_oracle(cfg, 99);
  }
  Pool::set_threads(0);
}

TEST(DeliveryOracle, LockstepMatchesTheModel) {
  run_delivery_oracle_at_widths(SchedulerConfig{});
}

TEST(DeliveryOracle, BoundedDelayMatchesTheModel) {
  SchedulerConfig cfg;
  cfg.mode = SchedulerMode::kBoundedDelay;
  cfg.delta_max = 2;
  cfg.seed = 17;
  run_delivery_oracle_at_widths(cfg);
}

TEST(DeliveryOracle, ReorderRushMatchesTheModel) {
  SchedulerConfig cfg;
  cfg.mode = SchedulerMode::kReorderRush;
  cfg.delta_max = 2;
  cfg.seed = 23;
  run_delivery_oracle_at_widths(cfg);
}

TEST(DeliveryOracle, InboxViewsOutliveTheNextRoundsTraffic) {
  // Round r's inbox views — and envelopes taken from them — point into
  // round r's send log. They must stay valid and unchanged while round
  // r+1 is sent (enough to reallocate every round buffer), since the log
  // is double-buffered.
  Network net(6, 2);
  RecordingTransport transport;
  net.set_transport(&transport);
  net.corrupt(5);
  net.multicast(0, {1, 2, 1}, make_words_payload(4, {10, 11, 12, 13}));
  net.send(3, 1, make_value_payload(4, 30, 8));
  net.send(2, 1, make_value_payload(2, 20, 8));
  net.advance_round();
  const InboxView ones = net.inbox(1);
  ASSERT_EQ(ones.size(), 4u);
  std::vector<Msg> before;
  for (const Envelope& e : ones) before.push_back(Msg::of(e));
  const Envelope held = ones[0];
  const WordVec& held_words = held.payload.words;
  ASSERT_EQ(held_words.size(), 4u);
  for (int i = 0; i < 5000; ++i)
    net.multicast(static_cast<ProcId>(i % 5), {1, 5, 1},
                  make_words_payload(4, {99, 98, 97}));
  net.corrupt(0);
  std::vector<Msg> after;
  for (const Envelope& e : ones) after.push_back(Msg::of(e));
  EXPECT_EQ(after, before);
  EXPECT_EQ(held.from, 0u);
  EXPECT_EQ(held_words[3], 13u);
  EXPECT_EQ(Msg::of(net.inbox(1)[0]), before[0]);
  net.advance_round();
  EXPECT_EQ(net.inbox(1).size(), 10000u);
  // The transport saw round r's 5 envelopes, then round r+1's 15000 in
  // global send order.
  ASSERT_EQ(transport.sent.size(), 15005u);
  for (std::size_t i = 5; i < transport.sent.size(); ++i) {
    const Msg& m = transport.sent[i];
    const std::size_t call = (i - 5) / 3;
    ASSERT_EQ(m.from, call % 5) << i;
    ASSERT_EQ(m.to, (i - 5) % 3 == 1 ? 5u : 1u) << i;
    ASSERT_EQ(m.words[0], 99u) << i;
  }
}

TEST(Network, RejectsFullCorruption) {
  EXPECT_THROW(Network(3, 3), std::logic_error);
}

TEST(BitLedger, MaxAndTotalsByMask) {
  BitLedger ledger(4);
  ledger.charge_send(0, 10);
  ledger.charge_send(1, 30);
  ledger.charge_send(2, 20);
  std::vector<bool> corrupt{false, true, false, false};
  EXPECT_EQ(ledger.max_bits_sent(corrupt, false), 20u);
  EXPECT_EQ(ledger.max_bits_sent(corrupt, true), 30u);
  EXPECT_EQ(ledger.total_bits_sent(corrupt, false), 30u);
  EXPECT_EQ(ledger.total_msgs_sent(corrupt, false), 2u);
}

TEST(Payload, BitAccounting) {
  Payload words = make_words_payload(1, {1, 2, 3});
  EXPECT_EQ(words.content_bits, 3 * kWordBits);
  EXPECT_EQ(words.bits(), 3 * kWordBits + kHeaderBits);
  Payload vote = make_value_payload(2, 1, 1);
  EXPECT_EQ(vote.bits(), 1 + kHeaderBits);
}

TEST(Payload, InlineAndHeapStorageAccountIdentically) {
  // The small-buffer optimization must be invisible to the paper's bit
  // ledger: a payload of w words costs the same whether the words sit in
  // the inline buffer or spilled to the heap.
  for (std::size_t w = 0; w <= 2 * WordVec::kInlineWords + 1; ++w) {
    WordVec direct;
    std::vector<std::uint64_t> reference;
    for (std::size_t i = 0; i < w; ++i) {
      direct.push_back(i + 1);
      reference.push_back(i + 1);
    }
    Payload a = make_words_payload(9, std::move(direct));
    Payload b = make_words_payload(9, WordVec(reference));
    EXPECT_EQ(a.words.is_inline(), w <= WordVec::kInlineWords);
    EXPECT_EQ(a.content_bits, b.content_bits);
    EXPECT_EQ(a.bits(), b.bits());
    EXPECT_EQ(a.bits(), w * kWordBits + kHeaderBits);
    EXPECT_EQ(a.words, b.words);
  }
}

TEST(WordVec, SpillsToHeapAndPreservesContents) {
  WordVec v;
  EXPECT_TRUE(v.is_inline());
  for (std::uint64_t i = 0; i < 100; ++i) v.push_back(i * 3);
  EXPECT_FALSE(v.is_inline());
  ASSERT_EQ(v.size(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) EXPECT_EQ(v[i], i * 3);
  // Copy and move both preserve contents across the spill boundary.
  WordVec copy = v;
  WordVec moved = std::move(v);
  EXPECT_EQ(copy, moved);
  // Insert-at-end (the AEBA packing pattern) works inline and spilled.
  WordVec small{7};
  std::vector<std::uint64_t> tail{8, 9, 10};
  small.insert(small.end(), tail.begin(), tail.end());
  ASSERT_EQ(small.size(), 4u);
  EXPECT_EQ(small[0], 7u);
  EXPECT_EQ(small[3], 10u);
}

TEST(WordVec, CopyOfSpilledWordsIsIndependent) {
  // A copy owns its words: mutating or destroying either side leaves the
  // other as it was.
  WordVec copy;
  WordVec assigned{1, 2, 3, 4, 5, 6, 7, 8, 9};
  {
    WordVec source;
    for (std::uint64_t i = 0; i < 8; ++i) source.push_back(i);
    ASSERT_FALSE(source.is_inline());
    copy = source;
    assigned = source;
    EXPECT_NE(copy.data(), source.data());
    EXPECT_EQ(copy, source);
    copy[3] = 99;
    copy.push_back(100);
    EXPECT_EQ(source[3], 3u);
    EXPECT_EQ(source.size(), 8u);
    source.clear();
    source.push_back(42);
  }
  ASSERT_EQ(assigned.size(), 8u);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(assigned[i], i);
  ASSERT_EQ(copy.size(), 9u);
  EXPECT_EQ(copy[3], 99u);
  EXPECT_EQ(copy[8], 100u);
}

TEST(PassiveStaticAdversary, CorruptsItsSetOnly) {
  Network net(10, 3);
  PassiveStaticAdversary adv({1, 4, 7});
  adv.on_start(net);
  EXPECT_TRUE(net.is_corrupt(1));
  EXPECT_TRUE(net.is_corrupt(4));
  EXPECT_TRUE(net.is_corrupt(7));
  EXPECT_EQ(net.corrupt_count(), 3u);
}

}  // namespace
}  // namespace ba
