#include "core/almost_everywhere.h"

#include <algorithm>

#include "aeba/aeba_with_coins.h"
#include "common/arena.h"
#include "common/pool.h"
#include "election/feige.h"

namespace ba {

namespace {

void advance_rounds(Network& net, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) net.advance_round();
}

/// Coins for one node's election: round j exposed candidate j's coin
/// words into `buffer` (member-major, r words per member); the coin for
/// bit-instance (c, b) is bit b of word c.
class BufferCoins : public CoinSource {
 public:
  BufferCoins(const std::uint64_t* buffer, std::size_t r, std::size_t bits)
      : buffer_(buffer), r_(r), bits_(bits) {}
  bool coin(std::size_t pos, std::size_t instance, std::uint64_t) override {
    const std::size_t c = instance / bits_;
    const std::size_t b = instance % bits_;
    return ((buffer_[pos * r_ + c]) >> b) & 1;
  }

 private:
  const std::uint64_t* buffer_;
  std::size_t r_, bits_;
};

/// One node's election in flight. The coin buffer is cold per-level
/// state carved from the run's pooled epoch arena (common/arena.h) —
/// the epoch closes with the level, so one level's peak never pins
/// memory for the rest of the run and steady-state levels allocate
/// nothing.
struct NodeElection {
  std::size_t node_idx = 0;
  std::vector<std::uint32_t> candidates;  // array ids, child order
  ElectionParams eparams;
  std::unique_ptr<RegularGraph> graph;
  std::unique_ptr<AebaMachine> machine;
  std::uint64_t* coin_buffer = nullptr;   // member-major, r words each
  std::unique_ptr<BufferCoins> coins;
  std::vector<std::vector<std::uint32_t>> member_winners;  // per member pos
  std::vector<std::uint32_t> truth_winners;                // good-majority
};

}  // namespace

AlmostEverywhereBA::AlmostEverywhereBA(const ProtocolParams& params,
                                       std::uint64_t seed)
    : params_(params),
      rng_(seed),
      tree_([this] {
        Rng tree_rng = rng_.fork(0x7EE);
        return TournamentTree(params_.tree, tree_rng);
      }()),
      layout_(params_, tree_) {}

AeResult AlmostEverywhereBA::run(Network& net, Adversary& adversary,
                                 const std::vector<std::uint8_t>& inputs,
                                 bool release_sequence) {
  const std::size_t n = params_.tree.n;
  BA_REQUIRE(net.size() == n, "network size must match params");
  BA_REQUIRE(inputs.size() == n, "one input bit per processor");
  const std::size_t num_levels = tree_.num_levels();

  adversary.on_start(net);
  auto* chooser = dynamic_cast<ArrayChooser*>(&adversary);
  auto* observer = dynamic_cast<TournamentObserver*>(&adversary);
  auto* conduct = dynamic_cast<ShareConduct*>(&adversary);
  auto* rusher = dynamic_cast<VoteRusher*>(&adversary);

  ShareFlow flow(params_, tree_, net, rng_.fork(2));
  if (conduct != nullptr)
    flow.set_fault_style(conduct->lies_in_share_flows() ? FaultStyle::lying
                                                        : FaultStyle::silent);

  // ---- Step 1: generate arrays, deal to home leaves, share to level 2.
  // Dealings go through the batched share flow: one driver-side pass
  // draws all randomness in array order (byte-identical to per-array
  // dealing), then the Vandermonde products fan out across the pool.
  std::vector<ArrayState> arrays(n);
  std::vector<std::vector<Fp>> deal_words(n);
  std::vector<ShareFlow::DealJob> deal_jobs(n);
  for (ProcId i = 0; i < n; ++i) {
    ArrayState& a = arrays[i];
    a.id = i;
    a.owner_good_at_gen = !net.is_corrupt(i);
    Rng arr_rng = rng_.fork(0x5000 + i);
    if (net.is_corrupt(i) && chooser != nullptr) {
      a.truth = chooser->choose_array(i, layout_, arr_rng);
      BA_REQUIRE(a.truth.size() == layout_.total_words(),
                 "adversary array has wrong layout");
    } else {
      a.truth.resize(layout_.total_words());
      for (auto& w : a.truth) w = arr_rng.next() & Fp::kP;
    }
    std::vector<Fp>& words = deal_words[i];
    words.resize(a.truth.size());
    for (std::size_t w = 0; w < words.size(); ++w) words[w] = Fp(a.truth[w]);
    deal_jobs[i].owner = i;
    deal_jobs[i].leaf_idx = i;
    deal_jobs[i].words = &words;
    a.level = 1;
    a.node_idx = i;
  }
  {
    auto dealt = flow.deal_to_leaf_batch(deal_jobs);
    for (ProcId i = 0; i < n; ++i) arrays[i].recs = std::move(dealt[i]);
  }
  deal_words.clear();
  deal_words.shrink_to_fit();
  advance_rounds(net, 1);
  for (auto& a : arrays)
    flow.send_secret_up(a, 0, [](std::size_t) { return true; });
  advance_rounds(net, 1);

  // Candidate lists per node at the current election level.
  std::vector<std::vector<std::uint32_t>> cand_at_node(tree_.nodes_at(2));
  for (const auto& a : arrays) cand_at_node[a.node_idx].push_back(a.id);

  AeResult result;
  result.levels.reserve(num_levels);

  // Pooled storage for cold per-round election state (coin buffers):
  // slabs persist across levels, contents are carved fresh per level
  // epoch.
  PodArena<std::uint64_t> cold_arena;

  // ---- Step 2: elections on levels 2 .. L-1.
  for (std::size_t lvl = 2; lvl + 1 <= num_levels; ++lvl) {
    const std::size_t node_count = tree_.nodes_at(lvl);
    PodArena<std::uint64_t>::Epoch cold_epoch(cold_arena);
    BA_ENSURE(cand_at_node.size() == node_count, "candidate lists lost");
    AeLevelStats stats;
    stats.level = lvl;

    std::vector<NodeElection> elections;
    std::size_t max_rounds = 0;
    for (std::size_t ni = 0; ni < node_count; ++ni) {
      NodeElection e;
      e.node_idx = ni;
      e.candidates = cand_at_node[ni];
      BA_ENSURE(!e.candidates.empty(), "node with no candidates");
      elections.push_back(std::move(e));
    }

    // Phase A: expose every candidate's bin-choice word — the whole
    // level goes through one expose_batch call (one arena epoch, one
    // decoder pin, level-wide recombination fan-outs) instead of one
    // sendDown + sendOpen per candidate.
    std::vector<std::vector<MemberViews>> bin_views(node_count);
    {
      std::vector<ShareFlow::ExposeJob> jobs;
      for (const auto& e : elections)
        for (auto cid : e.candidates)
          jobs.push_back({&arrays[cid], layout_.bin_word(lvl),
                          layout_.bin_word(lvl) + 1});
      std::vector<ShareFlow::Exposure> exps = flow.expose_batch(jobs);
      std::size_t xi = 0;
      for (const auto& e : elections) {
        bin_views[e.node_idx].reserve(e.candidates.size());
        for (std::size_t ci = 0; ci < e.candidates.size(); ++ci)
          bin_views[e.node_idx].push_back(std::move(exps[xi++].opened));
      }
    }
    advance_rounds(net, ShareFlow::exposure_rounds(lvl));

    // Phase B: agree on bin choices (Algorithm 1 step 1) — one AEBA
    // machine per node, r * bits instances, coins from candidate blocks.
    // Elections are node-local state with per-node forked Rng streams, so
    // machine construction fans out across the pool.
    const std::size_t k = tree_.node(lvl, 0).members.size();
    // Coin buffers are carved driver-side (the arena is never touched
    // from a pool body); the workers below only write through them.
    for (auto& e : elections) {
      const std::size_t r = e.candidates.size();
      if (r <= params_.w) continue;  // trivial: no machine, no coins
      e.coin_buffer = cold_arena.alloc(k * r);
      std::fill_n(e.coin_buffer, k * r, 0);
    }
    Pool::for_each(elections.size(), [&](std::size_t ei, std::size_t) {
      NodeElection& e = elections[ei];
      const std::size_t r = e.candidates.size();
      if (r <= params_.w) return;  // trivial: everyone advances
      e.eparams.num_candidates = r;
      e.eparams.num_winners = params_.w;
      const std::size_t bits = e.eparams.bits_per_bin();
      const std::size_t nbins = e.eparams.num_bins();
      Rng graph_rng = rng_.fork((0x6000 + lvl) * 0x10001 + e.node_idx);
      e.graph = std::make_unique<RegularGraph>(RegularGraph::random(
          k, std::min(params_.g_intra, k - 1), graph_rng));
      const std::uint64_t ctx = (std::uint64_t{lvl} << 32) | e.node_idx;
      e.machine = std::make_unique<AebaMachine>(
          ctx, tree_.node(lvl, e.node_idx).members, e.graph.get(),
          params_.aeba, r * bits);
      e.coins = std::make_unique<BufferCoins>(e.coin_buffer, r, bits);
      for (std::size_t pos = 0; pos < k; ++pos) {
        for (std::size_t c = 0; c < r; ++c) {
          const std::uint64_t word =
              bin_views[e.node_idx][c].at(pos, 0).value();
          const std::uint32_t bin = bin_choice_from_word(word, nbins);
          for (std::size_t b = 0; b < bits; ++b)
            e.machine->set_input(pos, c * bits + b, (bin >> b) & 1);
        }
      }
    });
    for (const auto& e : elections)
      if (e.machine != nullptr)
        max_rounds = std::max(max_rounds, e.candidates.size());

    for (std::size_t j = 0; j < max_rounds; ++j) {
      // Round j runs the elections that still have a candidate j.
      std::vector<NodeElection*> active;
      std::vector<AebaMachine*> machines;
      for (auto& e : elections)
        if (e.machine != nullptr && j < e.candidates.size()) {
          active.push_back(&e);
          machines.push_back(e.machine.get());
        }
      // Expose round-j coins: candidate j's coin words (Definition 4: the
      // j-th block supplies this round's coins for every instance) —
      // every active election's exposure rides one expose_batch call.
      {
        std::vector<ShareFlow::ExposeJob> jobs;
        for (const NodeElection* e : active)
          jobs.push_back({&arrays[e->candidates[j]],
                          layout_.coin_word(lvl, 0),
                          layout_.coin_word(lvl, 0) + e->candidates.size()});
        std::vector<ShareFlow::Exposure> exps = flow.expose_batch(jobs);
        for (std::size_t xi = 0; xi < active.size(); ++xi) {
          NodeElection& e = *active[xi];
          const std::size_t r = e.candidates.size();
          const MemberViews& mv = exps[xi].opened;
          for (std::size_t pos = 0; pos < k; ++pos)
            for (std::size_t c = 0; c < r; ++c)
              e.coin_buffer[pos * r + c] = mv.at(pos, c).value();
        }
      }
      advance_rounds(net, ShareFlow::exposure_rounds(lvl));

      vote_round(net, machines, rusher);
      // Node machines tally independently (each only reads its members'
      // inboxes): fan out across nodes.
      Pool::for_each(active.size(), [&](std::size_t xi, std::size_t) {
        active[xi]->machine->tally_votes(net, *active[xi]->coins, j);
      });
    }
    // Coin-free cleanup rounds before committing (see AebaParams).
    std::vector<AebaMachine*> machines;
    for (auto& e : elections)
      if (e.machine != nullptr) machines.push_back(e.machine.get());
    for (int cleanup = 0; cleanup < 2; ++cleanup) {
      vote_round(net, machines, rusher);
      Pool::for_each(machines.size(), [&](std::size_t mi, std::size_t) {
        machines[mi]->tally_majority(net);
      });
    }

    // Phase C: winners — per-member views and the good-majority outcome.
    // Per-election bodies write only election-indexed state; the stats
    // fold happens serially in election order afterwards, so the floating
    // point accumulation order never depends on scheduling.
    std::vector<std::vector<std::uint32_t>> winners_per_node(node_count);
    std::vector<double> node_agreement(elections.size(), -1.0);
    std::vector<std::size_t> node_winners_good(elections.size(), 0);
    Pool::for_each(elections.size(), [&](std::size_t ei, std::size_t) {
      NodeElection& e = elections[ei];
      const std::size_t r = e.candidates.size();
      if (e.machine == nullptr) {
        // Trivial election: everyone advances, every member knows it.
        e.truth_winners = e.candidates;
        e.member_winners.assign(k, e.candidates);
        winners_per_node[e.node_idx] = e.candidates;
        return;
      }
      const std::size_t bits = e.eparams.bits_per_bin();
      const std::size_t nbins = e.eparams.num_bins();
      const auto& members = tree_.node(lvl, e.node_idx).members;

      std::vector<std::uint32_t> truth_bins(r);
      for (std::size_t c = 0; c < r; ++c) {
        std::uint32_t v = 0;
        for (std::size_t b = 0; b < bits; ++b)
          v |= e.machine->good_majority(c * bits + b, net.corrupt_mask())
                   ? (1u << b)
                   : 0u;
        truth_bins[c] = v % nbins;
      }
      std::vector<std::uint32_t> widx =
          lightest_bin_winners(truth_bins, e.eparams);
      e.truth_winners.clear();
      for (auto wi : widx) e.truth_winners.push_back(e.candidates[wi]);
      winners_per_node[e.node_idx] = e.truth_winners;

      // Members apply the lightest-bin rule to their own agreed bins;
      // the batch fans out when this election is the only one running.
      std::vector<std::vector<std::uint32_t>> bins_of_member(
          k, std::vector<std::uint32_t>(r));
      for (std::size_t pos = 0; pos < k; ++pos) {
        for (std::size_t c = 0; c < r; ++c) {
          std::uint32_t v = 0;
          for (std::size_t b = 0; b < bits; ++b)
            v |= e.machine->vote_of(pos, c * bits + b) ? (1u << b) : 0u;
          bins_of_member[pos][c] = v % nbins;
        }
      }
      std::vector<std::vector<std::uint32_t>> member_widx =
          lightest_bin_winners_batch(bins_of_member, e.eparams);
      auto sorted_truth = e.truth_winners;
      std::sort(sorted_truth.begin(), sorted_truth.end());
      e.member_winners.resize(k);
      std::size_t good_members = 0, agreeing = 0;
      for (std::size_t pos = 0; pos < k; ++pos) {
        e.member_winners[pos].clear();
        for (auto wi : member_widx[pos])
          e.member_winners[pos].push_back(e.candidates[wi]);
        std::sort(e.member_winners[pos].begin(), e.member_winners[pos].end());
        if (!net.is_corrupt(members[pos])) {
          ++good_members;
          if (e.member_winners[pos] == sorted_truth) ++agreeing;
        }
      }
      if (good_members > 0)
        node_agreement[ei] = static_cast<double>(agreeing) /
                             static_cast<double>(good_members);

      for (std::size_t wi = 0; wi < widx.size(); ++wi) {
        const ArrayState& a = arrays[e.truth_winners[wi]];
        const std::uint32_t true_bin = bin_choice_from_word(
            a.truth[layout_.bin_word(lvl)], nbins);
        if (a.owner_good_at_gen && truth_bins[widx[wi]] == true_bin)
          node_winners_good[ei] += 1;
      }
    });
    double agreement_sum = 0.0;
    std::size_t agreement_nodes = 0;
    for (std::size_t ei = 0; ei < elections.size(); ++ei) {
      const NodeElection& e = elections[ei];
      if (e.machine == nullptr) continue;
      stats.elections += 1;
      stats.winners_total += e.truth_winners.size();
      stats.winners_good += node_winners_good[ei];
      if (node_agreement[ei] >= 0.0) {
        agreement_sum += node_agreement[ei];
        ++agreement_nodes;
      }
    }
    stats.mean_bin_agreement =
        agreement_nodes == 0 ? 1.0 : agreement_sum / agreement_nodes;
    result.levels.push_back(stats);

    // The adaptive adversary reacts to the (public) winners now, before
    // shares move up: this is the attack the paper defeats.
    if (observer != nullptr)
      observer->on_level_elected(tree_, lvl, winners_per_node, net);

    // Phase D: winners' remaining blocks move up; losers die.
    const std::size_t new_offset = layout_.offset_after_level(lvl);
    std::vector<std::vector<std::uint32_t>> next_cands(
        lvl + 1 < num_levels ? tree_.nodes_at(lvl + 1) : 1);
    for (auto& e : elections) {
      std::vector<bool> is_winner_id(n, false);
      for (auto id : e.truth_winners) is_winner_id[id] = true;
      for (auto cid : e.candidates) {
        ArrayState& a = arrays[cid];
        if (!is_winner_id[cid]) {
          a.alive = false;
          a.recs.clear();
          a.recs.shrink_to_fit();
          continue;
        }
        const auto& mw = e.member_winners;
        flow.send_secret_up(a, new_offset, [&](std::size_t pos) {
          return std::binary_search(mw[pos].begin(), mw[pos].end(), cid);
        });
      }
      // Winners join the parent's candidate list in child order.
      const std::size_t parent = tree_.node(lvl, e.node_idx).parent;
      for (auto id : e.truth_winners) next_cands[parent].push_back(id);
    }
    advance_rounds(net, 1);
    cand_at_node = std::move(next_cands);
  }

  // ---- Step 3: root agreement on the input bits.
  const auto& root_cands = cand_at_node[0];
  result.r_root = root_cands.size();
  const TreeNode& root = tree_.node(num_levels, 0);
  Rng root_graph_rng = rng_.fork(0x7000);
  RegularGraph root_graph = RegularGraph::random(
      n, std::min(params_.g_intra, n - 1), root_graph_rng);
  AebaMachine root_machine((std::uint64_t{num_levels} << 32), root.members,
                           &root_graph, params_.aeba, 1);
  for (std::size_t pos = 0; pos < n; ++pos)
    root_machine.set_input(pos, 0, inputs[root.members[pos]] != 0);

  std::uint64_t* root_coin_buffer = cold_arena.alloc(n);
  std::fill_n(root_coin_buffer, n, 0);
  BufferCoins root_coins(root_coin_buffer, 1, 1);
  const std::vector<AebaMachine*> root_machines{&root_machine};
  const std::size_t root_rounds =
      root_cands.empty() ? 0 : ArrayLayout::kRootWords * root_cands.size();
  for (std::size_t j = 0; j < root_rounds; ++j) {
    // Round j's coin: word j / r_root of candidate j mod r_root.
    ArrayState& a = arrays[root_cands[j % root_cands.size()]];
    const std::size_t word =
        layout_.root_block_offset() + j / root_cands.size();
    const std::vector<ShareFlow::Exposure> exps =
        flow.expose_batch({{&a, word, word + 1}});
    const MemberViews& mv = exps.front().opened;
    for (std::size_t pos = 0; pos < n; ++pos)
      root_coin_buffer[pos] = mv.at(pos, 0).value();
    advance_rounds(net, ShareFlow::exposure_rounds(num_levels));

    vote_round(net, root_machines, rusher);
    root_machine.tally_votes(net, root_coins, j);
  }
  for (int cleanup = 0; cleanup < 2; ++cleanup) {
    vote_round(net, root_machines, rusher);
    root_machine.tally_majority(net);
  }

  result.decision.resize(n);
  for (std::size_t pos = 0; pos < n; ++pos)
    result.decision[root.members[pos]] =
        root_machine.vote_of(pos, 0) ? 1 : 0;
  result.decided_bit = root_machine.good_majority(0, net.corrupt_mask());
  result.agreement_fraction =
      root_machine.agreement_fraction(0, net.corrupt_mask());
  bool some_good_input_matches = false;
  for (ProcId p = 0; p < n; ++p)
    if (!net.is_corrupt(p) && (inputs[p] != 0) == result.decided_bit)
      some_good_input_matches = true;
  result.validity = some_good_input_matches;

  // ---- §3.5: release the global coin subsequence.
  if (release_sequence) {
    const std::size_t cw = params_.coin_words;
    result.seq_views.assign(cw * root_cands.size(),
                            std::vector<std::uint64_t>(n, 0));
    result.seq_word_good.assign(cw * root_cands.size(), false);
    result.seq_truth.assign(cw * root_cands.size(), 0);
    for (std::size_t t = 0; t < cw; ++t) {
      // All root candidates' word-t exposures share one expose_batch.
      const std::size_t word = layout_.seq_block_offset() + t;
      std::vector<ShareFlow::ExposeJob> jobs;
      jobs.reserve(root_cands.size());
      for (std::size_t c = 0; c < root_cands.size(); ++c)
        jobs.push_back({&arrays[root_cands[c]], word, word + 1});
      std::vector<ShareFlow::Exposure> exps = flow.expose_batch(jobs);
      for (std::size_t c = 0; c < root_cands.size(); ++c) {
        const ArrayState& a = arrays[root_cands[c]];
        const MemberViews& mv = exps[c].opened;
        const std::size_t idx = t * root_cands.size() + c;
        for (std::size_t pos = 0; pos < n; ++pos)
          result.seq_views[idx][root.members[pos]] = mv.at(pos, 0).value();
        result.seq_truth[idx] = a.truth[word];
        result.seq_word_good[idx] = a.owner_good_at_gen;
      }
      advance_rounds(net, ShareFlow::exposure_rounds(num_levels));
    }
  }

  result.rounds = net.round();
  result.open_tally_receivers = flow.open_receivers();
  result.open_tally_dispatches = flow.open_tallies();
  result.open_fast_leaf_tallies = flow.open_fast_leaf_tallies();
  result.share_decode_failures = flow.decode_failures();
  result.share_damaged_words = flow.damaged_words();
  result.share_gao_words = flow.gao_words();
  result.share_plans_built = flow.plans_built();
  result.share_plan_reuses = flow.plan_reuses();
  return result;
}

}  // namespace ba
