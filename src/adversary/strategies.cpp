#include "adversary/strategies.h"

#include <algorithm>

namespace ba {

std::vector<ProcId> random_proc_set(std::size_t n, std::size_t count,
                                    Rng& rng) {
  auto picks = rng.sample_without_replacement(n, std::min(count, n));
  std::vector<ProcId> out;
  out.reserve(picks.size());
  for (auto p : picks) out.push_back(static_cast<ProcId>(p));
  return out;
}

namespace {

void corrupt_fraction(Network& net, double fraction, Rng& rng) {
  const std::size_t want = static_cast<std::size_t>(
      fraction * static_cast<double>(net.size()));
  const std::size_t count =
      std::min(want, net.corruption_budget_left() + net.corrupt_count());
  if (count <= net.corrupt_count()) return;
  Rng pick = rng.fork(0xC0);
  for (ProcId p :
       random_proc_set(net.size(), count - net.corrupt_count(), pick)) {
    if (net.is_corrupt(p)) continue;
    if (net.corruption_budget_left() == 0) break;
    net.corrupt(p);
  }
}

/// Colluding anti-majority votes: every corrupt member votes the opposite
/// of the current good-majority in every instance and sends that to all
/// its neighbors (rushing: called after good votes are queued).
void rush_anti_majority(AebaMachine& machine, Network& net) {
  const std::size_t m = machine.num_members();
  const std::size_t inst = machine.num_instances();
  const std::size_t wpm = (inst + 63) / 64;
  // Current good-majority per instance (collusion: corrupt members pool
  // what their inboxes will show; ground-truth majority is the strongest
  // consistent approximation).
  std::vector<std::uint64_t> anti(wpm, 0);
  for (std::size_t i = 0; i < inst; ++i) {
    std::size_t ones = 0, good = 0;
    for (std::size_t pos = 0; pos < m; ++pos) {
      if (net.is_corrupt(machine.members()[pos])) continue;
      ++good;
      ones += machine.vote_of(pos, i) ? 1 : 0;
    }
    const bool maj = 2 * ones >= good;
    if (!maj) anti[i / 64] |= std::uint64_t{1} << (i % 64);
  }
  const Payload vote =
      AebaMachine::make_vote_payload(machine.context(), anti, inst);
  for (std::size_t pos = 0; pos < m; ++pos) {
    const ProcId self = machine.members()[pos];
    if (!net.is_corrupt(self)) continue;
    // Receivers only tally votes from their graph neighbors, so sending
    // anywhere else is wasted flooding — target the real edges.
    net.multicast(self, machine.neighbor_ids(pos), vote);
  }
}

}  // namespace

void StaticMaliciousAdversary::on_start(Network& net) {
  corrupt_fraction(net, fraction_, rng_);
}

void StaticMaliciousAdversary::rush_votes(AebaMachine& machine, Network& net,
                                          std::uint64_t) {
  rush_anti_majority(machine, net);
}

void CrashAdversary::on_start(Network& net) {
  corrupt_fraction(net, fraction_, rng_);
}

void AdaptiveWinnerTakeover::on_level_elected(
    const TournamentTree& tree, std::size_t level,
    const std::vector<std::vector<std::uint32_t>>& winners_per_node,
    Network& net) {
  // The paper's Section 1.3 attack: "wait until a small set is elected and
  // then take over all processors in that set". Corrupt winner ids only
  // once the surviving set is small enough to afford (always at the root,
  // i.e. the final committee). In the processor-election baseline the
  // winners are the processors that will decide for everyone; in the
  // array protocol they are array *owners*, whose shares were dealt and
  // erased long ago — corrupting them gains nothing, which is the point.
  std::size_t total_winners = 0;
  for (const auto& winners : winners_per_node)
    total_winners += winners.size();
  const bool final_set = level >= tree.num_levels();
  if (final_set || total_winners <= net.corruption_budget_left() / 4) {
    for (const auto& winners : winners_per_node) {
      for (std::uint32_t id : winners) {
        if (net.corruption_budget_left() == 0) return;
        if (!net.is_corrupt(id)) net.corrupt(id);
      }
    }
  }
  if (!corrupt_share_holders_) return;
  // Then spend remaining budget on members of the winning nodes — the
  // processors that *hold shares* of winning arrays. Node membership
  // grows q-fold per level, so this stops being affordable quickly.
  for (std::size_t ni = 0; ni < winners_per_node.size(); ++ni) {
    if (winners_per_node[ni].empty()) continue;
    if (level > tree.num_levels()) continue;
    const auto& members = tree.node(level, ni).members;
    for (ProcId m : members) {
      // Keep n/16 corruptions in reserve for later levels (3/16 of an
      // n/3 budget).
      if (net.corruption_budget_left() <= net.size() / 16) return;
      if (!net.is_corrupt(m)) net.corrupt(m);
    }
  }
}

void AdaptiveWinnerTakeover::rush_votes(AebaMachine& machine, Network& net,
                                        std::uint64_t) {
  rush_anti_majority(machine, net);
}

void FloodingA2EAdversary::on_start(Network& net) {
  corrupt_fraction(net, fraction_, rng_);
}

void FloodingA2EAdversary::flood_requests(const Network& net,
                                          std::size_t loop,
                                          const A2EParams& params,
                                          std::vector<FloodRequest>& out) {
  // Each corrupt processor floods one label toward a window of receivers,
  // trying to overload them. k is not yet known, so the label choice is a
  // guess (this is why Lemma 9's overload bound survives flooding).
  Rng r = rng_.fork(0xF100D + loop);
  for (ProcId p = 0; p < net.size(); ++p) {
    if (!net.is_corrupt(p)) continue;
    const auto label = static_cast<std::uint32_t>(r.below(params.sqrt_n));
    for (std::size_t i = 0; i < flood_per_pair_; ++i) {
      const auto to = static_cast<ProcId>(r.below(net.size()));
      out.push_back({p, to, label});
    }
  }
}

std::optional<std::uint64_t> FloodingA2EAdversary::respond(
    ProcId, ProcId, std::uint32_t, std::uint64_t, std::uint64_t m_hint) const {
  // Always answer, always wrongly: try to push confused processors to a
  // bogus decision.
  return m_hint ^ 1;
}

std::vector<std::uint32_t> bins_with_stuffing(
    const std::vector<std::uint32_t>& good_bins, std::size_t num_bad,
    std::size_t num_bins) {
  std::vector<std::uint32_t> bins = good_bins;
  std::vector<std::size_t> load(num_bins, 0);
  for (auto b : good_bins) ++load[b % num_bins];
  for (std::size_t i = 0; i < num_bad; ++i) {
    const std::size_t lightest = static_cast<std::size_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    bins.push_back(static_cast<std::uint32_t>(lightest));
    ++load[lightest];
  }
  return bins;
}

std::vector<std::uint32_t> bins_with_spread(
    const std::vector<std::uint32_t>& good_bins, std::size_t num_bad,
    std::size_t num_bins) {
  std::vector<std::uint32_t> bins = good_bins;
  for (std::size_t i = 0; i < num_bad; ++i)
    bins.push_back(static_cast<std::uint32_t>(i % num_bins));
  return bins;
}

}  // namespace ba
