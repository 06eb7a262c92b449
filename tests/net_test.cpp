// Tests for the synchronous network: delivery semantics, privacy of the
// adversary's view, corruption budget, bit accounting.
#include <gtest/gtest.h>

#include "net/adversary.h"
#include "net/network.h"

namespace ba {
namespace {

/// The oracle for Network::charge_batch: one message's ledger charge made
/// at once, content bits plus the header on both ends, as send() charges
/// it.
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

TEST(Network, AdversarySeesOnlyCorruptEndpoints) {
  // Private channels: pending traffic between good processors is
  // invisible to the adversary.
  Network net(4, 1);
  net.corrupt(3);
  net.send(0, 1, make_value_payload(7, 1, 1));  // good -> good: hidden
  net.send(0, 3, make_value_payload(7, 2, 1));  // good -> corrupt: visible
  net.send(3, 2, make_value_payload(7, 3, 1));  // corrupt -> good: visible
  auto visible = net.pending_visible_to_adversary();
  ASSERT_EQ(visible.size(), 2u);
  for (const auto& r : visible) {
    const Envelope& e = net.pending_envelope(r);
    EXPECT_TRUE(net.is_corrupt(e.from) || net.is_corrupt(e.to));
  }
}

TEST(Network, PendingRefsSurviveAdversarialInjection) {
  // The rushing adversary reads its view and then injects; the handles it
  // holds must stay valid (the seed returned raw pointers into a vector
  // that reallocation invalidated).
  Network net(8, 2);
  net.corrupt(7);
  net.send(0, 7, make_value_payload(1, 111, 8));
  auto visible = net.pending_visible_to_adversary();
  ASSERT_EQ(visible.size(), 1u);
  const PendingRef held = visible[0];
  // Inject enough traffic to force every staging bucket to reallocate.
  for (int i = 0; i < 1000; ++i)
    net.send(7, static_cast<ProcId>(i % 8), make_value_payload(2, i, 8));
  EXPECT_EQ(net.pending_envelope(held).payload.words[0], 111u);
  EXPECT_EQ(net.pending_envelope(held).from, 0u);
}

TEST(Network, StalePendingRefsDieLoudlyAcrossRounds) {
  // Regression: a handle held across advance_round() used to resolve
  // silently to whatever the next round staged at the same index. The
  // round stamp makes the staleness a contract violation instead.
  Network net(4, 1);
  net.corrupt(1);
  net.send(0, 1, make_value_payload(7, 5, 4));
  auto visible = net.pending_visible_to_adversary();
  ASSERT_EQ(visible.size(), 1u);
  const PendingRef held = visible[0];
  net.advance_round();
  // Stage a different envelope at the very same (receiver, index) slot:
  // the stale handle's index is in range, so only the round stamp can
  // tell the two apart.
  net.send(2, 1, make_value_payload(7, 99, 4));
  EXPECT_THROW(net.pending_envelope(held), std::logic_error);
  // A fresh handle to the new round's envelope still resolves.
  auto fresh = net.pending_visible_to_adversary();
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(net.pending_envelope(fresh[0]).payload.words[0], 99u);
}

TEST(Network, MixedTagSpikeCapacityIsReleasedAfterTheSwap) {
  // Regression for the delivery-path release bug: the mixed-tag
  // redistribution swaps the inbox with per-worker scratch, and the
  // release policy used to run *before* the swap — so the buffer that
  // actually became the inbox was never evaluated, the old inbox block
  // (spike-sized) parked in scratch, and that capacity migrated to
  // whichever receiver the worker delivered next. Post-fix, a small
  // mixed-tag round after a spike must come out with a small inbox.
  Network net(2, 1);  // n <= 64: all delivery on one worker, one scratch
  const std::size_t kSpike = 5000;
  for (std::size_t i = 0; i < kSpike; ++i)
    net.send(1, 0, make_value_payload(10 + (i % 2), i, 16));
  net.advance_round();
  ASSERT_EQ(net.inbox(0).size(), kSpike);
  // Small mixed-tag round through the same worker's scratch.
  net.send(1, 0, make_value_payload(10, 1, 16));
  net.send(1, 0, make_value_payload(11, 2, 16));
  net.advance_round();
  ASSERT_EQ(net.inbox(0).size(), 2u);
  EXPECT_EQ(net.inbox(0)[0].payload.tag, 10u);
  EXPECT_EQ(net.inbox(0)[0].payload.words[0], 1u);
  EXPECT_EQ(net.inbox(0)[1].payload.tag, 11u);
  EXPECT_EQ(net.inbox(0)[1].payload.words[0], 2u);
  EXPECT_LE(net.inbox(0).capacity(), 1024u)
      << "spike capacity survived the mixed-tag swap";
}

TEST(Network, MidRoundCorruptionRevealsPendingTraffic) {
  // Adaptive takeover mid-round: traffic queued while an endpoint was
  // still good becomes visible once that endpoint is corrupted.
  Network net(4, 2);
  net.send(0, 1, make_value_payload(7, 5, 4));  // good -> good: hidden
  EXPECT_TRUE(net.pending_visible_to_adversary().empty());
  net.corrupt(1);
  auto visible = net.pending_visible_to_adversary();
  ASSERT_EQ(visible.size(), 1u);
  EXPECT_EQ(net.pending_envelope(visible[0]).payload.words[0], 5u);
  // Sends after the corruption join the view, which stays in global send
  // order across the two reads.
  net.send(2, 1, make_value_payload(7, 6, 4));
  auto after = net.pending_visible_to_adversary();
  ASSERT_EQ(after.size(), 2u);
  EXPECT_EQ(net.pending_envelope(after[0]).payload.words[0], 5u);
  EXPECT_EQ(net.pending_envelope(after[1]).payload.words[0], 6u);
}

TEST(Network, VisibilityIndexResetsAcrossRounds) {
  Network net(4, 1);
  net.corrupt(3);
  net.send(0, 3, make_value_payload(7, 1, 1));
  EXPECT_EQ(net.pending_visible_to_adversary().size(), 1u);
  net.advance_round();
  EXPECT_TRUE(net.pending_visible_to_adversary().empty());
  net.send(1, 3, make_value_payload(7, 2, 1));
  EXPECT_EQ(net.pending_visible_to_adversary().size(), 1u);
}

TEST(Network, TaggedInboxPartitionsByTag) {
  Network net(4, 1);
  net.send(2, 0, make_value_payload(9, 20, 4));
  net.send(1, 0, make_value_payload(7, 10, 4));
  net.send(3, 0, make_value_payload(7, 30, 4));
  net.send(1, 0, make_value_payload(9, 11, 4));
  net.advance_round();
  // Inbox is (tag, sender) ordered: tag 7 group first, then tag 9.
  ASSERT_EQ(net.inbox(0).size(), 4u);
  TaggedInbox sevens = net.inbox(0, 7);
  ASSERT_EQ(sevens.size(), 2u);
  EXPECT_EQ(sevens.begin()[0].from, 1u);
  EXPECT_EQ(sevens.begin()[1].from, 3u);
  TaggedInbox nines = net.inbox(0, 9);
  ASSERT_EQ(nines.size(), 2u);
  EXPECT_EQ(nines.begin()[0].from, 1u);
  EXPECT_EQ(nines.begin()[0].payload.words[0], 11u);
  EXPECT_EQ(nines.begin()[1].from, 2u);
  EXPECT_TRUE(net.inbox(0, 8).empty());
  EXPECT_TRUE(net.inbox(1, 7).empty());  // empty inbox, empty span
}

TEST(Network, TaggedInboxKeepsSenderStability) {
  // Within a tag, duplicates from one sender stay adjacent and ordered —
  // the same subsequence a tag filter over the sender-sorted inbox gave.
  Network net(3, 1);
  net.send(1, 0, make_value_payload(5, 1, 4));
  net.send(2, 0, make_value_payload(4, 99, 4));
  net.send(1, 0, make_value_payload(5, 2, 4));
  net.advance_round();
  TaggedInbox fives = net.inbox(0, 5);
  ASSERT_EQ(fives.size(), 2u);
  EXPECT_EQ(fives.begin()[0].payload.words[0], 1u);
  EXPECT_EQ(fives.begin()[1].payload.words[0], 2u);
}

TEST(Network, TaggedInboxResetsEachRound) {
  Network net(3, 1);
  net.send(1, 0, make_value_payload(5, 1, 4));
  net.advance_round();
  EXPECT_EQ(net.inbox(0, 5).size(), 1u);
  net.advance_round();
  EXPECT_TRUE(net.inbox(0, 5).empty());
}

TEST(Network, ChargeBatchMatchesChargeBulk) {
  // charge_batch must be bit-for-bit equivalent to charge_bulk, including
  // message counts, across interleaved senders and mid-round reads.
  Network a(4, 1), b(4, 1);
  for (int rep = 0; rep < 3; ++rep) {
    for (ProcId to = 1; to < 4; ++to) {
      charge_bulk(a, 0, to, 61);
      b.charge_batch(0, to, 61);
    }
    charge_bulk(a, 2, 1, 7);  // sender switch flushes the batch
    b.charge_batch(2, 1, 7);
  }
  // Ledger access drains the pending batch even before advance_round.
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_EQ(a.ledger().bits_sent(p), b.ledger().bits_sent(p));
    EXPECT_EQ(a.ledger().msgs_sent(p), b.ledger().msgs_sent(p));
    EXPECT_EQ(a.ledger().bits_received(p), b.ledger().bits_received(p));
  }
  a.advance_round();
  b.advance_round();
  EXPECT_EQ(a.ledger().total_bits_sent(std::vector<bool>(4, false), false),
            b.ledger().total_bits_sent(std::vector<bool>(4, false), false));
}

TEST(Network, ChargeTableMatchesChargeBatch) {
  // One charge_table call must equal the charge_batch calls it stands
  // for, on all three ledger columns, also when it lands between another
  // sender's pending batch and that batch's drain.
  const std::size_t n = 5;
  const std::size_t bits = 61;
  Network a(n, 1), b(n, 1);
  // Messages 0->1 x2, 0->3, 2->1, 4->0 x3: rows are per-processor totals.
  const std::vector<std::pair<ProcId, ProcId>> msgs = {
      {0, 1}, {0, 1}, {0, 3}, {2, 1}, {4, 0}, {4, 0}, {4, 0}};
  const std::vector<ChargeRow> rows = {
      {0, 3, 3}, {1, 0, 3}, {2, 1, 0}, {3, 0, 1}, {4, 3, 0}};
  a.charge_batch(3, 2, 9);  // pending batch of another sender
  b.charge_batch(3, 2, 9);
  for (const auto& [from, to] : msgs) a.charge_batch(from, to, bits);
  b.charge_table(rows, bits);
  a.charge_batch(3, 4, 9);
  b.charge_batch(3, 4, 9);
  for (ProcId p = 0; p < n; ++p) {
    EXPECT_EQ(a.ledger().bits_sent(p), b.ledger().bits_sent(p)) << p;
    EXPECT_EQ(a.ledger().msgs_sent(p), b.ledger().msgs_sent(p)) << p;
    EXPECT_EQ(a.ledger().bits_received(p), b.ledger().bits_received(p)) << p;
  }
  EXPECT_EQ(b.ledger().msgs_sent(3), 2u);
  EXPECT_EQ(b.ledger().msgs_sent(0), 3u);
  // The range check of charge_batch survives aggregation.
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

TEST(Network, MulticastEqualsPerReceiverSends) {
  // One multicast to k receivers (a duplicate and the sender itself
  // included) must leave ledger rows, inboxes, and the adversary's refs
  // exactly as k send() calls do, interleaved with other traffic.
  const std::vector<ProcId> to{4, 1, 6, 1, 0, 3};
  Network a(7, 2), b(7, 2);
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
  const auto va = a.pending_visible_to_adversary();
  const auto vb = b.pending_visible_to_adversary();
  ASSERT_EQ(va.size(), 3u);  // 0 -> 4, 0 -> 6, 6 -> 1
  ASSERT_EQ(va.size(), vb.size());
  for (std::size_t i = 0; i < va.size(); ++i) {
    EXPECT_EQ(va[i].to, vb[i].to) << i;
    EXPECT_EQ(va[i].index, vb[i].index) << i;
    EXPECT_EQ(a.pending_envelope(va[i]).from, b.pending_envelope(vb[i]).from);
  }
  a.advance_round();
  b.advance_round();
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
  net.corrupt(3);
  const std::vector<ProcId> to{1, 3, 9};
  EXPECT_THROW(net.multicast(0, to, make_value_payload(7, 1, 8)),
               std::logic_error);
  EXPECT_THROW(net.multicast(5, {1}, make_value_payload(7, 1, 8)),
               std::logic_error);
  EXPECT_EQ(net.ledger().msgs_sent(0), 0u);
  EXPECT_EQ(net.ledger().bits_sent(0), 0u);
  EXPECT_TRUE(net.pending_visible_to_adversary().empty());
  net.advance_round();
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_TRUE(net.inbox(p).empty()) << p;
    EXPECT_EQ(net.ledger().bits_received(p), 0u) << p;
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

TEST(WordVec, CopyOnWriteSharesSpilledBuffersUntilMutation) {
  WordVec a;
  for (std::uint64_t i = 0; i < 8; ++i) a.push_back(i);
  ASSERT_FALSE(a.is_inline());
  EXPECT_FALSE(a.is_shared());
  WordVec b = a;  // bulk fan-out: pointer copy, no word copy
  EXPECT_TRUE(a.is_shared());
  EXPECT_TRUE(b.is_shared());
  const WordVec& ca = a;
  const WordVec& cb = b;
  EXPECT_EQ(ca.data(), cb.data());  // aliased; const reads don't detach
  EXPECT_EQ(a, b);
  b[3] = 99;  // first mutating access detaches a private copy
  EXPECT_FALSE(a.is_shared());
  EXPECT_FALSE(b.is_shared());
  EXPECT_NE(ca.data(), cb.data());
  EXPECT_EQ(a[3], 3u);
  EXPECT_EQ(b[3], 99u);
}

TEST(WordVec, CopyOnWriteSurvivesSourceDestruction) {
  WordVec survivor;
  {
    WordVec source;
    for (std::uint64_t i = 0; i < 16; ++i) source.push_back(i * 7);
    survivor = source;
    EXPECT_TRUE(survivor.is_shared());
  }  // source released its reference
  EXPECT_FALSE(survivor.is_shared());
  for (std::uint64_t i = 0; i < 16; ++i) EXPECT_EQ(survivor[i], i * 7);
}

TEST(WordVec, SharedPushBackAndClearDetachCorrectly) {
  WordVec a;
  for (std::uint64_t i = 0; i < 5; ++i) a.push_back(i);
  WordVec b = a;
  b.push_back(100);  // must not grow through a's buffer
  ASSERT_EQ(a.size(), 5u);
  ASSERT_EQ(b.size(), 6u);
  EXPECT_EQ(b[5], 100u);
  WordVec c = a;
  c.clear();          // size-only; no write yet
  c.push_back(42);    // detaches before writing slot 0
  EXPECT_EQ(a[0], 0u);
  EXPECT_EQ(c[0], 42u);
}

TEST(WordVec, InlinePayloadsNeverShare) {
  WordVec a{1, 2};
  WordVec b = a;
  EXPECT_TRUE(a.is_inline());
  EXPECT_TRUE(b.is_inline());
  EXPECT_FALSE(a.is_shared());
  b[0] = 5;
  EXPECT_EQ(a[0], 1u);  // inline copies were always independent
}

TEST(WordVec, MovedFromSharedBufferKeepsOtherHoldersAlive) {
  WordVec a;
  for (std::uint64_t i = 0; i < 8; ++i) a.push_back(i);
  WordVec b = a;
  WordVec c = std::move(a);  // c takes a's reference; b unaffected
  EXPECT_TRUE(b.is_shared());
  EXPECT_TRUE(c.is_shared());
  EXPECT_EQ(b, c);
  EXPECT_EQ(a.size(), 0u);
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
