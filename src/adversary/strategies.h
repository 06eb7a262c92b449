// Concrete adversary strategies used across tests, benches and examples.
//
// Every strategy derives from Adversary and additionally implements the
// capability interfaces the protocols probe for (VoteRusher from aeba/,
// TournamentObserver / ShareConduct / ArrayChooser from core/, A2EAttacker
// from core/a2e.h). One object can attack several protocols.
#pragma once

#include <cstdint>
#include <vector>

#include "aeba/aeba_with_coins.h"
#include "core/a2e.h"
#include "core/almost_everywhere.h"
#include "net/adversary.h"

namespace ba {

/// The workhorse malicious adversary: corrupts a random `fraction` of
/// processors at start; corrupted processors send garbage in share flows,
/// vote against the current majority in every AEBA instance (colluding,
/// rushing), and stay silent in A2E.
class StaticMaliciousAdversary : public Adversary,
                                 public VoteRusher,
                                 public ShareConduct {
 public:
  StaticMaliciousAdversary(double fraction, std::uint64_t seed)
      : fraction_(fraction), rng_(seed) {}

  void on_start(Network& net) override;
  void rush_votes(AebaMachine& machine, Network& net,
                  std::uint64_t round) override;
  bool lies_in_share_flows() const override { return true; }

 private:
  double fraction_;
  Rng rng_;
};

/// Crash-fault adversary: corrupts a random fraction which simply stops
/// participating (silent in share flows, no votes, no A2E responses).
class CrashAdversary : public Adversary, public ShareConduct {
 public:
  CrashAdversary(double fraction, std::uint64_t seed)
      : fraction_(fraction), rng_(seed) {}
  void on_start(Network& net) override;
  bool lies_in_share_flows() const override { return false; }

 private:
  double fraction_;
  Rng rng_;
};

/// The adaptive attack the paper is built to survive (experiment E10):
/// watches election outcomes and immediately corrupts the winners —
/// processors in the processor-election baseline, array *owners* in the
/// King–Saia protocol (where this is useless: the arrays were dealt and
/// erased long ago). Also spends remaining budget on members of the nodes
/// holding winning shares, highest level first (where shares are most
/// concentrated per array).
class AdaptiveWinnerTakeover : public Adversary,
                               public TournamentObserver,
                               public VoteRusher,
                               public ShareConduct {
 public:
  AdaptiveWinnerTakeover(std::uint64_t seed, bool corrupt_share_holders = true)
      : rng_(seed), corrupt_share_holders_(corrupt_share_holders) {}

  void on_level_elected(
      const TournamentTree& tree, std::size_t level,
      const std::vector<std::vector<std::uint32_t>>& winners_per_node,
      Network& net) override;
  void rush_votes(AebaMachine& machine, Network& net,
                  std::uint64_t round) override;
  bool lies_in_share_flows() const override { return true; }

 private:
  Rng rng_;
  bool corrupt_share_holders_;
};

/// A2E flooding adversary: corrupts a random fraction at start; corrupt
/// processors flood request labels (before k is known) and answer every
/// request with the wrong message.
class FloodingA2EAdversary : public Adversary, public A2EAttacker {
 public:
  FloodingA2EAdversary(double fraction, std::uint64_t seed,
                       std::size_t flood_per_pair = 64)
      : fraction_(fraction), rng_(seed), flood_per_pair_(flood_per_pair) {}

  void on_start(Network& net) override;
  void flood_requests(const Network& net, std::size_t loop,
                      const A2EParams& params,
                      std::vector<FloodRequest>& out) override;
  std::optional<std::uint64_t> respond(ProcId q, ProcId p,
                                       std::uint32_t label, std::uint64_t k,
                                       std::uint64_t m_hint) const override;

 private:
  double fraction_;
  Rng rng_;
  std::size_t flood_per_pair_;
};

/// Utility: ids of `count` distinct random processors.
std::vector<ProcId> random_proc_set(std::size_t n, std::size_t count,
                                    Rng& rng);

/// Utility for Feige-election experiments (E5): adversarial bin choices
/// made *after* seeing the honest ones (the rushing model of Lemma 4).
/// Strategy "stuff": all bad candidates pick the currently lightest bin,
/// maximising bad winners. Returns the full bin vector (good || bad).
std::vector<std::uint32_t> bins_with_stuffing(
    const std::vector<std::uint32_t>& good_bins, std::size_t num_bad,
    std::size_t num_bins);

/// Strategy "spread": bad candidates spread evenly (control case).
std::vector<std::uint32_t> bins_with_spread(
    const std::vector<std::uint32_t>& good_bins, std::size_t num_bad,
    std::size_t num_bins);

}  // namespace ba
