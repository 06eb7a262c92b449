// Algorithm 5 — Almost-Everywhere Byzantine Agreement with Unreliable
// Global Coins (Appendix A.2, Theorems 3 and 5).
//
// A set of m members, connected by a sparse random regular graph G, runs
// Rabin-style randomized agreement:
//
//   each round:  send vote to neighbors; maj/fraction over received votes;
//                if fraction >= (1 - eps0)(2/3 + eps/2) keep maj,
//                else vote := global coin for this round.
//
// Coins come from a CoinSource: per round, per member, per instance — they
// may be unreliable (adversarial in some rounds, slightly inconsistent
// across members), which is exactly what the tournament supplies (coins
// are words of candidate arrays, >= 2/3 of which are honest). Theorem 5:
// with r honest-coin rounds, all but C2·m/log m good members agree with
// probability >= 1 - e^{-C1 m} - 2^{-r}.
//
// The machine runs M parallel *bit instances* over the same member set and
// graph (Algorithm 1 runs one instance per candidate bin-choice bit); all
// M votes of a round travel in one packed message, matching the paper's
// "in parallel for all contestants" batching.
//
// Driver protocol per round (rushing adversary), one vote_round() call
// followed by the caller's tally:
//   1. machine.send_votes(net)            — good members queue messages
//   2. rusher->rush_votes(machine, ...)   — the adversary's VoteRusher,
//      if it has one, injects corrupt votes after seeing the good ones
//   3. net.advance_round()
//   4. machine.tally_votes(net, coins)    — maj/coin update (or
//      tally_majority in the coin-free cleanup rounds)
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "graph/regular_graph.h"
#include "net/adversary.h"
#include "net/network.h"

namespace ba {

/// Message tag for AEBA votes (words[0] = machine context id, then packed
/// vote bits).
inline constexpr std::uint32_t kTagAebaVote = 0x0AEBA;

struct AebaParams {
  double eps = 0.1;    ///< adversary margin epsilon (corrupt < 1/3 - eps)
  double eps0 = 0.05;  ///< slack epsilon_0 of Algorithm 5

  /// Rabin's decide rule: a member seeing an overwhelming majority
  /// (fraction >= lock_threshold) commits permanently. Asymptotically the
  /// paper needs no early commit (Lemma 12 keeps agreement stable once
  /// reached because only O(n/log n) members are uninformed per round);
  /// at laptop scale that tail is a constant fraction and agreement would
  /// erode over consecutive adverse coin flips, so the commit rule —
  /// present in Rabin's original algorithm, which Algorithm 5 scales —
  /// makes the agreed state absorbing. Set to > 1 to disable (the
  /// paper-literal variant; ablated in experiment E12).
  double lock_threshold = 0.85;

  /// Rabin's *initial* decide rule: in round 0 a 3/4 super-majority
  /// (which unanimous good inputs produce at every member whose
  /// neighborhood is not hopelessly corrupted) commits immediately. This
  /// anchors validity against the adversarial-coin erosion that a split
  /// vote could otherwise cause at laptop scale. In split starts the
  /// observed fraction concentrates near 0.6, safely below. Set to > 1 to
  /// disable.
  double first_round_lock_threshold = 0.75;

  /// Algorithm 5 step 6 threshold.
  double threshold() const { return (1.0 - eps0) * (2.0 / 3.0 + eps / 2.0); }
};

/// Per-member, per-instance, per-round coin oracle. Members may see
/// different values (unreliable coins); implementations decide.
class CoinSource {
 public:
  virtual ~CoinSource() = default;
  /// Called serially, in member order within a round, so sources may
  /// draw lazily from a shared Rng.
  virtual bool coin(std::size_t member_pos, std::size_t instance,
                    std::uint64_t protocol_round) = 0;
};

/// Reliable shared coin: every member sees the same fresh random bit each
/// round. The ideal oracle of Theorem 4; used by tests and baselines.
class SharedRandomCoins : public CoinSource {
 public:
  explicit SharedRandomCoins(Rng rng) : rng_(rng) {}
  bool coin(std::size_t, std::size_t instance, std::uint64_t round) override;

 private:
  Rng rng_;
  std::unordered_map<std::uint64_t, bool> cache_;
};

/// Unreliable coin: a fixed subset of rounds is adversarial. In an
/// adversarial round each member receives the bit that keeps it *away*
/// from the global majority (the strongest coin-level attack: it pushes
/// the two camps apart). Honest rounds give one shared random bit.
class UnreliableCoins : public CoinSource {
 public:
  UnreliableCoins(Rng rng, std::vector<bool> round_is_bad)
      : rng_(rng), bad_(std::move(round_is_bad)) {}
  bool coin(std::size_t member_pos, std::size_t instance,
            std::uint64_t round) override;

  /// The attack needs to see current votes; the machine wires itself in.
  void attach_votes(const std::vector<std::uint64_t>* packed_votes,
                    std::size_t instance_count) {
    votes_ = packed_votes;
    instances_ = instance_count;
  }

 private:
  Rng rng_;
  std::vector<bool> bad_;
  std::unordered_map<std::uint64_t, bool> cache_;
  const std::vector<std::uint64_t>* votes_ = nullptr;
  std::size_t instances_ = 0;
};

class AebaMachine {
 public:
  /// `context` disambiguates machines multiplexed over one network (the
  /// tournament runs one machine per tree node). `graph` must have
  /// members.size() vertices and outlive the machine.
  AebaMachine(std::uint64_t context, std::vector<ProcId> members,
              const RegularGraph* graph, AebaParams params,
              std::size_t instances);

  std::size_t num_members() const { return members_.size(); }
  std::size_t num_instances() const { return instances_; }
  std::uint64_t context() const { return context_; }
  const std::vector<ProcId>& members() const { return members_; }
  /// The ProcIds of member `pos`'s graph neighbours, in graph order.
  const std::vector<ProcId>& neighbor_ids(std::size_t pos) const {
    return neighbor_ids_[pos];
  }
  const AebaParams& params() const { return params_; }

  void set_input(std::size_t member_pos, std::size_t instance, bool vote);

  bool vote_of(std::size_t member_pos, std::size_t instance) const;

  /// Queue this round's packed vote messages from all *good* members.
  void send_votes(Network& net) const;

  /// Consume delivered votes and apply the maj/coin rule at every good
  /// member. `protocol_round` feeds the coin source. The vote counting
  /// fans out across pool workers (each member into its own slot); the
  /// rule then runs serially in member order, which fixes the coin call
  /// order.
  void tally_votes(const Network& net, CoinSource& coins,
                   std::uint64_t protocol_round);

  /// Coin-free cleanup round: every unlocked good member adopts its local
  /// majority unconditionally. Once almost-everywhere agreement holds,
  /// this folds the members whose neighborhoods are too corrupted to ever
  /// reach the keep-threshold onto the common value before committing
  /// (harmless asymptotically, essential at laptop scale — see
  /// AebaParams::lock_threshold and experiment E12's ablation).
  /// Counts like tally_votes, then applies the rule in member order.
  void tally_majority(const Network& net);

  /// Build a correctly framed vote payload — used by adversary strategies
  /// to inject votes from corrupted members.
  static Payload make_vote_payload(std::uint64_t context,
                                   const std::vector<std::uint64_t>& packed,
                                   std::size_t instances);

  // ---- ground-truth instrumentation (not visible to the protocol) ----

  /// Majority vote among good members for an instance.
  bool good_majority(std::size_t instance,
                     const std::vector<bool>& corrupt) const;
  /// Fraction of good members whose vote equals the good majority.
  double agreement_fraction(std::size_t instance,
                            const std::vector<bool>& corrupt) const;
  /// Lemma 11: fraction of good members "informed" in the last tallied
  /// round, instance 0.
  double informed_fraction() const { return informed_fraction_; }

  /// Raw packed votes (member-major); exposed for coin attacks and tests.
  const std::vector<std::uint64_t>& packed_votes() const { return votes_; }

 private:
  std::size_t words_per_member() const { return (instances_ + 63) / 64; }
  bool get_bit(const std::vector<std::uint64_t>& v, std::size_t member,
               std::size_t instance) const;
  void set_bit(std::vector<std::uint64_t>& v, std::size_t member,
               std::size_t instance, bool b);
  /// Tally this round's neighbor votes for member `pos` into
  /// count_ones[0, instances) and `received` (valid senders).
  void count_received(const Network& net, std::size_t pos,
                      std::uint32_t* count_ones, std::size_t& received) const;
  /// count_received for every good member, fanned out across pool
  /// workers, into counts_ / received_.
  void count_votes(const Network& net);

  std::uint64_t context_;
  std::vector<ProcId> members_;
  std::vector<std::int32_t> member_pos_;  // ProcId -> position, -1 if absent
  std::vector<std::vector<ProcId>> neighbor_ids_;  // [pos] vote receivers
  const RegularGraph* graph_;
  AebaParams params_;
  std::size_t instances_;
  std::vector<std::uint64_t> votes_;   // member-major packed bits
  std::vector<std::uint64_t> locked_;  // members committed by the decide rule
  double informed_fraction_ = 1.0;
  // The last count_votes pass, reused across rounds: member pos's ones
  // per instance at counts_[pos * instances_, (pos + 1) * instances_)
  // and its valid senders at received_[pos] (good members only).
  std::vector<std::uint32_t> counts_;
  std::vector<std::size_t> received_;
};

/// Optional adversary capability: strategies that rush AEBA votes
/// implement this; every AEBA driver probes for it with dynamic_cast and
/// passes it to vote_round().
class VoteRusher {
 public:
  virtual ~VoteRusher() = default;
  virtual void rush_votes(AebaMachine& machine, Network& net,
                          std::uint64_t round) = 0;
};

/// The traffic of one vote round shared by every AEBA driver: each
/// machine's good members queue their votes (machines in order), then
/// `rusher` (null: none) injects corrupt votes into each machine in the
/// same round, then the network delivers. Callers tally afterwards.
void vote_round(Network& net, const std::vector<AebaMachine*>& machines,
                VoteRusher* rusher);

struct AebaResult {
  std::vector<bool> decided;          ///< good-majority decision per instance
  std::vector<double> agreement;      ///< good agreement fraction per instance
  std::uint64_t rounds = 0;
  double min_informed_fraction = 1.0;   ///< over all tallied rounds
  double mean_informed_fraction = 1.0;  ///< Lemma 11 is per-round; the
                                        ///< min is dominated by the early
                                        ///< mixing rounds at small n
};

/// Standalone driver for Algorithm 5: runs `rounds` full rounds with the
/// rushing schedule documented above, then `cleanup_rounds` coin-free
/// majority rounds before the final commit.
AebaResult run_aeba(Network& net, Adversary& adversary, AebaMachine& machine,
                    CoinSource& coins, std::size_t rounds,
                    std::size_t cleanup_rounds = 2);

}  // namespace ba
