#include "baseline/processor_election.h"

#include <algorithm>

namespace ba {

namespace {
constexpr std::uint32_t kTagDecision = 0xE1EC;
}

ProcessorElectionBA::ProcessorElectionBA(const TreeParams& tree_params,
                                         std::size_t winners,
                                         std::uint64_t seed)
    : tree_params_(tree_params), w_(winners), rng_(seed) {}

ProcessorElectionResult ProcessorElectionBA::run(
    Network& net, Adversary& adversary,
    const std::vector<std::uint8_t>& inputs) {
  const std::size_t n = tree_params_.n;
  BA_REQUIRE(net.size() == n && inputs.size() == n, "size mismatch");
  adversary.on_start(net);
  auto* observer = dynamic_cast<TournamentObserver*>(&adversary);

  Rng tree_rng = rng_.fork(1);
  TournamentTree tree(tree_params_, tree_rng);
  const std::size_t num_levels = tree.num_levels();

  // Candidates per node at the current level; leaves contribute their own
  // processor.
  std::vector<std::vector<ProcId>> cands(tree.nodes_at(2));
  for (ProcId p = 0; p < n; ++p)
    cands[tree.node(1, p).parent].push_back(p);

  for (std::size_t lvl = 2; lvl + 1 <= num_levels; ++lvl) {
    const std::size_t node_count = tree.nodes_at(lvl);
    std::vector<std::vector<ProcId>> winners_per_node(node_count);
    for (std::size_t ni = 0; ni < node_count; ++ni) {
      auto& cs = cands[ni];
      if (cs.size() <= w_) {
        winners_per_node[ni] = cs;
        continue;
      }
      ElectionParams ep;
      ep.num_candidates = cs.size();
      ep.num_winners = w_;
      const std::size_t nbins = ep.num_bins();
      // Candidates broadcast bin choices in the clear to the node members
      // (this is the non-adaptive design's fatal transparency). A corrupt
      // candidate picks the bin that currently looks lightest; with a
      // rushing adversary it sees all good choices first.
      std::vector<std::uint32_t> bins(cs.size());
      std::vector<std::size_t> load(nbins, 0);
      for (std::size_t c = 0; c < cs.size(); ++c) {
        if (net.is_corrupt(cs[c])) continue;
        bins[c] = static_cast<std::uint32_t>(rng_.below(nbins));
        ++load[bins[c]];
      }
      for (std::size_t c = 0; c < cs.size(); ++c) {
        if (!net.is_corrupt(cs[c])) continue;
        const std::size_t lightest = static_cast<std::size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        bins[c] = static_cast<std::uint32_t>(lightest);
        ++load[bins[c]];
      }
      const auto& members = tree.node(lvl, ni).members;
      for (std::size_t c = 0; c < cs.size(); ++c)
        net.charge_multicast(cs[c], members, ep.bits_per_bin());
      auto widx = lightest_bin_winners(bins, ep);
      for (auto wi : widx) winners_per_node[ni].push_back(cs[wi]);
    }
    net.advance_round();

    // The election outcome is public — the adaptive adversary reacts now.
    if (observer != nullptr) {
      std::vector<std::vector<std::uint32_t>> as_ids(node_count);
      for (std::size_t ni = 0; ni < node_count; ++ni)
        as_ids[ni].assign(winners_per_node[ni].begin(),
                          winners_per_node[ni].end());
      observer->on_level_elected(tree, lvl, as_ids, net);
    }

    std::vector<std::vector<ProcId>> next(
        lvl + 1 < num_levels ? tree.nodes_at(lvl + 1) : 1);
    for (std::size_t ni = 0; ni < node_count; ++ni) {
      const std::size_t parent = tree.node(lvl, ni).parent;
      for (ProcId p : winners_per_node[ni]) next[parent].push_back(p);
    }
    cands = std::move(next);
  }

  ProcessorElectionResult result;
  result.committee = cands[0];
  if (observer != nullptr) {
    std::vector<std::vector<std::uint32_t>> as_ids(1);
    as_ids[0].assign(result.committee.begin(), result.committee.end());
    observer->on_level_elected(tree, num_levels, as_ids, net);
  }

  // The committee agrees internally (majority of member inputs) and
  // broadcasts the decision; everyone takes the majority of committee
  // messages. Corrupt committee members equivocate: 0 to even processors,
  // 1 to odd — the classic split attack.
  std::size_t c_ones = 0, c_good = 0;
  for (ProcId p : result.committee) {
    if (net.is_corrupt(p)) {
      ++result.committee_corrupt;
      continue;
    }
    ++c_good;
    c_ones += inputs[p] != 0 ? 1 : 0;
  }
  const std::uint8_t committee_bit = (c_good > 0 && 2 * c_ones >= c_good);
  for (ProcId p : result.committee) {
    for (ProcId q = 0; q < n; ++q) {
      const std::uint64_t v =
          net.is_corrupt(p) ? (q % 2) : static_cast<std::uint64_t>(committee_bit);
      net.send(p, q, make_value_payload(kTagDecision, v, 1));
    }
  }
  net.advance_round();

  std::vector<std::uint8_t> out(n, 0);
  for (ProcId q = 0; q < n; ++q) {
    std::size_t votes = 0, ones = 0;
    for (const auto& env : net.inbox(q)) {
      if (env.payload.tag != kTagDecision || env.payload.words.empty())
        continue;
      ++votes;
      ones += env.payload.words[0] & 1;
    }
    out[q] = votes > 0 && 2 * ones >= votes ? 1 : 0;
  }

  std::size_t good = 0, ones = 0;
  for (ProcId p = 0; p < n; ++p) {
    if (net.is_corrupt(p)) continue;
    ++good;
    ones += out[p];
  }
  result.ba.decided_bit = good > 0 && 2 * ones >= good;
  std::size_t agree = 0;
  for (ProcId p = 0; p < n; ++p)
    if (!net.is_corrupt(p) && (out[p] != 0) == result.ba.decided_bit) ++agree;
  result.ba.agreement_fraction =
      good == 0 ? 1.0 : static_cast<double>(agree) / static_cast<double>(good);
  result.ba.all_good_agree = agree == good;
  bool unanimous = true;
  std::uint8_t first = 0;
  bool seen = false;
  for (ProcId p = 0; p < n; ++p) {
    if (net.is_corrupt(p)) continue;
    if (!seen) {
      first = inputs[p] != 0 ? 1 : 0;
      seen = true;
    } else if ((inputs[p] != 0 ? 1 : 0) != first) {
      unanimous = false;
    }
  }
  result.ba.validity =
      !unanimous || (seen && result.ba.decided_bit == (first != 0));
  result.ba.rounds = net.round();
  return result;
}

}  // namespace ba
