// Algorithm 2 — Almost-Everywhere Byzantine Agreement (Theorem 2), plus
// the §3.5 modification that also releases a global coin subsequence.
//
// Outline (Section 3):
//  1. Every processor generates an array of random words (one block per
//     election level + the root coin word + the §3.5 sequence block),
//     secret-shares it into its home leaf, and the leaf re-shares upward
//     (iterated secret sharing — the adaptive adversary can only attack
//     ever-larger member sets as an array survives elections).
//  2. Level by level, every node elects w of its candidates' arrays with
//     Feige's lightest-bin rule; the bin choices are agreed inside the
//     node by AEBA (Algorithm 5) whose round-j coins are words exposed
//     from candidate j's own block (sendDown + sendOpen).
//  3. The root runs AEBA once on the processors' *input bits*, with coins
//     from the surviving arrays: almost-everywhere agreement.
//  4. (§3.5) The winners' sequence blocks are opened: a wq-word sequence,
//     >= 2/3 of which are uniform random and agreed almost everywhere —
//     fuel for the almost-everywhere-to-everywhere protocol.
//
// Adversary capabilities are probed via dynamic_cast: ArrayChooser (pick
// corrupt arrays), TournamentObserver (adaptive reaction to public
// election outcomes), ShareConduct (lie vs crash in share flows), and
// VoteRusher from aeba/ (rush votes inside node elections).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/array_state.h"
#include "core/params.h"
#include "core/share_flow.h"
#include "net/adversary.h"
#include "net/network.h"
#include "tree/tournament_tree.h"

namespace ba {

/// Adversary capability: choose the array contents of corrupt processors
/// (the adversary chooses every input in the paper's model; arrays of
/// corrupt processors need not be random).
class ArrayChooser {
 public:
  virtual ~ArrayChooser() = default;
  virtual std::vector<std::uint64_t> choose_array(ProcId owner,
                                                  const ArrayLayout& layout,
                                                  Rng& rng) = 0;
};

/// Adversary capability: election outcomes are public; an adaptive
/// adversary may react (e.g. corrupt processors holding winning arrays'
/// shares) the moment winners are known, before shares move upward.
class TournamentObserver {
 public:
  virtual ~TournamentObserver() = default;
  virtual void on_level_elected(
      const TournamentTree& tree, std::size_t level,
      const std::vector<std::vector<std::uint32_t>>& winners_per_node,
      Network& net) = 0;
};

/// Adversary capability: whether corrupt processors send garbage in share
/// flows (malicious, the default) or follow the protocol (crash-style).
class ShareConduct {
 public:
  virtual ~ShareConduct() = default;
  virtual bool lies_in_share_flows() const = 0;
};

/// Per-level election instrumentation (Lemma 6 / experiment E6).
struct AeLevelStats {
  std::size_t level = 0;
  std::size_t elections = 0;       ///< nodes that ran a real election
  std::size_t winners_total = 0;
  std::size_t winners_good = 0;    ///< ground-truth good arrays among them
  double mean_bin_agreement = 1.0; ///< good members agreeing with the
                                   ///< majority election outcome
};

struct AeResult {
  std::vector<std::uint8_t> decision;  ///< final vote per processor
  bool decided_bit = false;            ///< good-majority decision
  double agreement_fraction = 0.0;     ///< good procs agreeing with it
  bool validity = true;                ///< decision was some good input
  std::uint64_t rounds = 0;
  std::vector<AeLevelStats> levels;

  // §3.5 global coin subsequence (released when requested):
  // seq_views[i][p] = processor p's view of sequence word i.
  std::vector<std::vector<std::uint64_t>> seq_views;
  std::vector<bool> seq_word_good;       ///< ground truth per sequence word
  std::vector<std::uint64_t> seq_truth;  ///< true word (valid when good)
  std::size_t r_root = 0;

  // sendOpen tally instrumentation (pooled per-receiver fan-out; report
  // extras only, never fingerprinted).
  std::uint64_t open_tally_receivers = 0;   ///< receivers tallied in total
  std::uint64_t open_tally_dispatches = 0;  ///< pooled tally dispatches
  std::uint64_t share_decode_failures = 0;  ///< failed sendDown decodes
  std::uint64_t share_damaged_words = 0;    ///< Gao-decoded sendDown words
};

class AlmostEverywhereBA {
 public:
  AlmostEverywhereBA(const ProtocolParams& params, std::uint64_t seed);

  const TournamentTree& tree() const { return tree_; }
  const ArrayLayout& layout() const { return layout_; }
  const ProtocolParams& params() const { return params_; }

  /// Run the tournament. `inputs` has one bit per processor; the network
  /// must have exactly params.tree.n processors. When `release_sequence`,
  /// the §3.5 coin words are opened after the root agreement.
  AeResult run(Network& net, Adversary& adversary,
               const std::vector<std::uint8_t>& inputs,
               bool release_sequence = true);

 private:
  ProtocolParams params_;
  Rng rng_;
  TournamentTree tree_;
  ArrayLayout layout_;
};

}  // namespace ba
