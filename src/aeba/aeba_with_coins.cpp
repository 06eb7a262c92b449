#include "aeba/aeba_with_coins.h"

#include <algorithm>

#include "common/pool.h"

namespace ba {

namespace {

/// Coin-cache key: (round, instance) packed without overlap.
std::uint64_t coin_key(std::uint64_t round, std::size_t instance) {
  BA_REQUIRE(round <= 0xFFFFFFFFu && instance <= 0xFFFFFFFFu,
             "coin round/instance out of the cache key range");
  return (round << 32) | instance;
}

}  // namespace

bool SharedRandomCoins::coin(std::size_t, std::size_t instance,
                             std::uint64_t round) {
  const std::uint64_t key = coin_key(round, instance);
  auto it = cache_.find(key);
  if (it == cache_.end()) it = cache_.emplace(key, rng_.flip()).first;
  return it->second;
}

bool UnreliableCoins::coin(std::size_t member_pos, std::size_t instance,
                           std::uint64_t round) {
  const bool bad = round < bad_.size() && bad_[round];
  if (!bad) {
    const std::uint64_t key = coin_key(round, instance);
    auto it = cache_.find(key);
    if (it == cache_.end()) it = cache_.emplace(key, rng_.flip()).first;
    return it->second;
  }
  // Adversarial round: feed each member the complement of the current
  // global majority so coin-takers drift away from agreement.
  if (votes_ != nullptr && instances_ > 0) {
    const std::size_t wpm = (instances_ + 63) / 64;
    const std::size_t m = votes_->size() / wpm;
    std::size_t ones = 0;
    for (std::size_t mm = 0; mm < m; ++mm) {
      const std::uint64_t word = (*votes_)[mm * wpm + instance / 64];
      ones += (word >> (instance % 64)) & 1;
    }
    const bool majority = 2 * ones >= m;
    (void)member_pos;
    return !majority;
  }
  // No vote view attached: alternate per member (maximally inconsistent).
  return (member_pos + round) % 2 == 0;
}

AebaMachine::AebaMachine(std::uint64_t context, std::vector<ProcId> members,
                         const RegularGraph* graph, AebaParams params,
                         std::size_t instances)
    : context_(context),
      members_(std::move(members)),
      graph_(graph),
      params_(params),
      instances_(instances) {
  BA_REQUIRE(graph_ != nullptr, "machine needs a communication graph");
  BA_REQUIRE(graph_->size() == members_.size(),
             "graph must have one vertex per member");
  BA_REQUIRE(instances_ >= 1, "need at least one instance");
  // The coin caches key instances by 32 bits (coin_key), and the packed
  // vote rows would wrap to zero words near SIZE_MAX.
  BA_REQUIRE(instances_ <= (std::size_t{1} << 32),
             "at most 2^32 instances per machine");
  ProcId max_id = 0;
  for (ProcId m : members_) max_id = std::max(max_id, m);
  member_pos_.assign(max_id + 1, -1);
  for (std::size_t i = 0; i < members_.size(); ++i) {
    BA_REQUIRE(member_pos_[members_[i]] < 0, "members must be distinct");
    member_pos_[members_[i]] = static_cast<std::int32_t>(i);
  }
  neighbor_ids_.resize(members_.size());
  for (std::size_t i = 0; i < members_.size(); ++i) {
    neighbor_ids_[i].reserve(graph_->neighbors(i).size());
    for (auto nb : graph_->neighbors(i))
      neighbor_ids_[i].push_back(members_[nb]);
  }
  votes_.assign(members_.size() * words_per_member(), 0);
  locked_.assign(members_.size() * words_per_member(), 0);
}

bool AebaMachine::get_bit(const std::vector<std::uint64_t>& v,
                          std::size_t member, std::size_t instance) const {
  return (v[member * words_per_member() + instance / 64] >>
          (instance % 64)) & 1;
}

void AebaMachine::set_bit(std::vector<std::uint64_t>& v, std::size_t member,
                          std::size_t instance, bool b) {
  auto& word = v[member * words_per_member() + instance / 64];
  const std::uint64_t mask = std::uint64_t{1} << (instance % 64);
  word = b ? (word | mask) : (word & ~mask);
}

void AebaMachine::set_input(std::size_t member_pos, std::size_t instance,
                            bool vote) {
  BA_REQUIRE(member_pos < members_.size(), "member position out of range");
  BA_REQUIRE(instance < instances_, "instance out of range");
  set_bit(votes_, member_pos, instance, vote);
}

bool AebaMachine::vote_of(std::size_t member_pos,
                          std::size_t instance) const {
  BA_REQUIRE(member_pos < members_.size(), "member position out of range");
  BA_REQUIRE(instance < instances_, "instance out of range");
  return get_bit(votes_, member_pos, instance);
}

Payload AebaMachine::make_vote_payload(
    std::uint64_t context, const std::vector<std::uint64_t>& packed,
    std::size_t instances) {
  Payload p;
  p.tag = kTagAebaVote;
  p.words.reserve(1 + packed.size());
  p.words.push_back(context);
  p.words.insert(p.words.end(), packed.begin(), packed.end());
  p.content_bits = instances;  // one bit per parallel instance
  return p;
}

void AebaMachine::send_votes(Network& net) const {
  const std::size_t wpm = words_per_member();
  std::vector<std::uint64_t> packed(wpm);
  for (std::size_t pos = 0; pos < members_.size(); ++pos) {
    const ProcId self = members_[pos];
    if (net.is_corrupt(self)) continue;  // the adversary's VoteRusher votes
    for (std::size_t w = 0; w < wpm; ++w) packed[w] = votes_[pos * wpm + w];
    net.multicast(self, neighbor_ids_[pos],
                  make_vote_payload(context_, packed, instances_));
  }
}

void AebaMachine::count_received(const Network& net, std::size_t pos,
                                 std::uint32_t* count_ones,
                                 std::size_t& received) const {
  const std::size_t wpm = words_per_member();
  const ProcId self = members_[pos];
  // Latest vote message per *graph neighbor* this round ("collect votes
  // from neighbors in G" — votes from non-neighbors are ignored, which
  // is what bounds flooding). Inboxes are sorted by sender (stably), so
  // duplicates from one sender are adjacent: keep the last and commit
  // on sender change.
  const auto& my_neighbors = graph_->neighbors(pos);
  std::fill(count_ones, count_ones + instances_, 0);
  received = 0;
  const Payload* pending = nullptr;
  ProcId pending_from = 0;
  auto commit = [&](const Payload* vote) {
    if (vote == nullptr) return;
    if (vote->words.size() < 1 + wpm) return;  // malformed
    ++received;
    for (std::size_t i = 0; i < instances_; ++i) {
      const std::uint64_t word = vote->words[1 + i / 64];
      count_ones[i] += (word >> (i % 64)) & 1;
    }
  };
  // The tournament runs many machines over one network: keep this
  // machine's votes (tag, then context word) and skip the rest.
  for (const auto& env : net.inbox(self)) {
    if (env.payload.tag != kTagAebaVote || env.payload.words.empty() ||
        env.payload.words[0] != context_)
      continue;
    if (env.from >= member_pos_.size() || member_pos_[env.from] < 0)
      continue;
    const auto sender_pos =
        static_cast<std::uint32_t>(member_pos_[env.from]);
    if (!std::binary_search(my_neighbors.begin(), my_neighbors.end(),
                            sender_pos))
      continue;
    if (pending != nullptr && env.from != pending_from) commit(pending);
    pending_from = env.from;
    pending = &env.payload;
  }
  commit(pending);
}

void AebaMachine::count_votes(const Network& net) {
  counts_.resize(members_.size() * instances_);
  received_.resize(members_.size());
  Pool::for_each(
      members_.size(),
      [&](std::size_t pos, std::size_t) {
        if (net.is_corrupt(members_[pos])) return;
        count_received(net, pos, counts_.data() + pos * instances_,
                       received_[pos]);
      },
      /*min_grain=*/8);
}

void AebaMachine::tally_majority(const Network& net) {
  count_votes(net);
  for (std::size_t pos = 0; pos < members_.size(); ++pos) {
    if (net.is_corrupt(members_[pos]) || received_[pos] == 0) continue;
    const std::uint32_t* count_ones = counts_.data() + pos * instances_;
    for (std::size_t i = 0; i < instances_; ++i) {
      if (get_bit(locked_, pos, i)) continue;
      set_bit(votes_, pos, i, 2 * count_ones[i] >= received_[pos]);
    }
  }
}

void AebaMachine::tally_votes(const Network& net, CoinSource& coins,
                              std::uint64_t protocol_round) {
  // Ground truth for Lemma 11 instrumentation (instance 0): the majority
  // bit among good members and its support f' = |S'| / m, where S' is the
  // set of good members voting that bit and m counts *all* members (the
  // paper normalises by n, not by the good count).
  std::size_t good_total = 0, good_ones = 0;
  for (std::size_t pos = 0; pos < members_.size(); ++pos) {
    if (net.is_corrupt(members_[pos])) continue;
    ++good_total;
    good_ones += get_bit(votes_, pos, 0) ? 1 : 0;
  }
  const bool gmaj = 2 * good_ones >= good_total;
  const double f_prime =
      static_cast<double>(gmaj ? good_ones : good_total - good_ones) /
      static_cast<double>(members_.size());
  std::size_t informed = 0, informed_denom = 0;
  const double lock_at =
      protocol_round == 0 ? std::min(params_.lock_threshold,
                                     params_.first_round_lock_threshold)
                          : params_.lock_threshold;

  count_votes(net);
  // Coins read votes_ (UnreliableCoins' attack), so the rule writes the
  // next votes into a copy.
  std::vector<std::uint64_t> next = votes_;
  for (std::size_t pos = 0; pos < members_.size(); ++pos) {
    const std::size_t received = received_[pos];
    if (net.is_corrupt(members_[pos]) || received == 0) continue;
    const std::uint32_t* count_ones = counts_.data() + pos * instances_;
    for (std::size_t i = 0; i < instances_; ++i) {
      const bool maj = 2 * count_ones[i] >= received;
      const std::size_t maj_count =
          maj ? count_ones[i] : received - count_ones[i];
      const double fraction =
          static_cast<double>(maj_count) / static_cast<double>(received);
      if (i == 0) {
        ++informed_denom;
        const bool lower_ok = fraction >= (1.0 - params_.eps0) * f_prime;
        const bool upper_ok =
            fraction <= (1.0 + params_.eps0) *
                            (f_prime + 1.0 / 3.0 - params_.eps) ||
            f_prime + 1.0 / 3.0 >= 1.0;  // vacuous when bound exceeds 1
        if (lower_ok && upper_ok) ++informed;
      }
      if (get_bit(locked_, pos, i)) continue;  // committed (decide rule)
      if (fraction >= params_.threshold()) {
        set_bit(next, pos, i, maj);
        if (fraction >= lock_at) set_bit(locked_, pos, i, true);
      } else {
        set_bit(next, pos, i, coins.coin(pos, i, protocol_round));
      }
    }
  }
  informed_fraction_ =
      informed_denom == 0 ? 1.0
                          : static_cast<double>(informed) /
                                static_cast<double>(informed_denom);
  votes_ = std::move(next);
}

bool AebaMachine::good_majority(std::size_t instance,
                                const std::vector<bool>& corrupt) const {
  std::size_t total = 0, ones = 0;
  for (std::size_t pos = 0; pos < members_.size(); ++pos) {
    if (corrupt[members_[pos]]) continue;
    ++total;
    ones += get_bit(votes_, pos, instance) ? 1 : 0;
  }
  return 2 * ones >= total;
}

double AebaMachine::agreement_fraction(std::size_t instance,
                                       const std::vector<bool>& corrupt) const {
  const bool maj = good_majority(instance, corrupt);
  std::size_t total = 0, agree = 0;
  for (std::size_t pos = 0; pos < members_.size(); ++pos) {
    if (corrupt[members_[pos]]) continue;
    ++total;
    agree += get_bit(votes_, pos, instance) == maj ? 1 : 0;
  }
  return total == 0 ? 1.0
                    : static_cast<double>(agree) / static_cast<double>(total);
}

void vote_round(Network& net, const std::vector<AebaMachine*>& machines,
                VoteRusher* rusher) {
  for (AebaMachine* m : machines) m->send_votes(net);
  if (rusher != nullptr)
    for (AebaMachine* m : machines) rusher->rush_votes(*m, net, net.round());
  net.advance_round();
}

AebaResult run_aeba(Network& net, Adversary& adversary, AebaMachine& machine,
                    CoinSource& coins, std::size_t rounds,
                    std::size_t cleanup_rounds) {
  AebaResult result;
  auto* rusher = dynamic_cast<VoteRusher*>(&adversary);
  const std::vector<AebaMachine*> machines{&machine};
  double informed_sum = 0.0;
  for (std::size_t r = 0; r < rounds; ++r) {
    vote_round(net, machines, rusher);
    machine.tally_votes(net, coins, r);
    result.min_informed_fraction =
        std::min(result.min_informed_fraction, machine.informed_fraction());
    informed_sum += machine.informed_fraction();
  }
  if (rounds > 0)
    result.mean_informed_fraction = informed_sum / static_cast<double>(rounds);
  for (std::size_t r = 0; r < cleanup_rounds; ++r) {
    vote_round(net, machines, rusher);
    machine.tally_majority(net);
  }
  result.rounds = rounds + cleanup_rounds;
  result.decided.resize(machine.num_instances());
  result.agreement.resize(machine.num_instances());
  for (std::size_t i = 0; i < machine.num_instances(); ++i) {
    result.decided[i] = machine.good_majority(i, net.corrupt_mask());
    result.agreement[i] = machine.agreement_fraction(i, net.corrupt_mask());
  }
  return result;
}

}  // namespace ba
