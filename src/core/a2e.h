// Algorithm 3 — Almost Everywhere To Everywhere with a Global Coin
// (Section 4, Theorem 4, Lemmas 7-10).
//
// Per loop:
//  1. Every processor p sends, for each request label i in [1..sqrt(n)],
//     `requests_per_label` requests labelled i to uniformly random
//     processors. (The conference text compresses this; the per-label
//     request budget "a log n" is what Lemmas 8-10 analyse.)
//  2. Almost all good processors learn a random label k (from the §3.5
//     global coin subsequence; per-processor views may rarely differ).
//  3. A processor q answers exactly the requests labelled with *its view
//     of k*, with its current message, unless overloaded (more than
//     `overload_cap` such requests). Requests beyond `per_sender_cap`
//     from one sender mark that sender "evidently corrupt" and are
//     ignored — this is what defuses request flooding.
//  4. p picks i_max, the label with the most (validated) responses; if at
//     least decision_threshold() of them carry the same message m, and no
//     other message reaches that count, p decides m (a2e_decision).
//
// Repeating X = O(log n) independent loops brings every good processor to
// the knowledgeable message w.h.p. (Lemma 10). Each processor sends
// O(sqrt(n) log n) messages per loop — the Õ(sqrt(n)) cost that dominates
// Theorem 1.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "net/adversary.h"
#include "net/network.h"

namespace ba {

struct A2EParams {
  std::size_t sqrt_n = 0;             ///< number of request labels
  std::size_t requests_per_label = 0; ///< "a log n"
  std::size_t repeats = 0;            ///< X loops
  std::size_t overload_cap = 0;       ///< sqrt(n) log n in the paper
  std::size_t per_sender_cap = 0;     ///< flooding guard per (sender, receiver)
  double eps = 0.1;                   ///< knowledgeable margin epsilon

  /// Lemma 7: decide when (1/2 + 3*eps/8) * a log n same-m responses
  /// arrive for the busiest label.
  std::size_t decision_threshold() const {
    return static_cast<std::size_t>(
        (0.5 + 3.0 * eps / 8.0) * static_cast<double>(requests_per_label));
  }

  static A2EParams laptop_scale(std::size_t n);
};

/// Adversary capability for Algorithm 3, probed via dynamic_cast.
class A2EAttacker {
 public:
  virtual ~A2EAttacker() = default;

  struct FloodRequest {
    ProcId from, to;
    std::uint32_t label;
  };
  /// Extra requests from corrupt processors, sent before k is revealed
  /// (the adversary cannot target k). Caps still apply receiver-side.
  virtual void flood_requests(const Network& net, std::size_t loop,
                              const A2EParams& params,
                              std::vector<FloodRequest>& out) {
    (void)net;
    (void)loop;
    (void)params;
    (void)out;
  }

  /// Response of corrupt processor q to the request (p, label), after k is
  /// revealed. nullopt = stay silent. `m_hint` is the knowledgeable
  /// message (the adversary has long since learned it).
  ///
  /// Contract: a pure function of its arguments. The engine calls it once
  /// per good request that lands on a corrupt q, in no fixed order and
  /// from any pool worker at once (the response pass fans out over
  /// senders), so an implementation may read only its own immutable state
  /// and must not draw randomness or count calls.
  virtual std::optional<std::uint64_t> respond(ProcId q, ProcId p,
                                               std::uint32_t label,
                                               std::uint64_t k,
                                               std::uint64_t m_hint) const {
    (void)q;
    (void)p;
    (void)label;
    (void)k;
    (void)m_hint;
    return std::nullopt;
  }
};

struct A2ELoopStats {
  std::size_t loop = 0;
  std::size_t overloaded_knowledgeable = 0;  ///< Lemma 9
  std::size_t decided_total = 0;   ///< good procs decided (cumulative)
  std::size_t decided_wrong = 0;   ///< good procs decided != M (cumulative)
  bool loop_success = false;       ///< all good procs decided M after loop
};

struct A2EResult {
  /// Final message per processor (good entries meaningful).
  std::vector<std::uint64_t> message;
  std::vector<bool> decided;
  std::size_t agree_count = 0;      ///< good procs holding M at the end
  std::size_t wrong_count = 0;      ///< good procs holding something else
  bool all_good_agree = false;
  std::vector<A2ELoopStats> loops;
  std::uint64_t rounds = 0;
};

/// Step 4's decision over the messages of the busiest label's responses:
/// the message that at least `threshold` of them carry, provided it is the
/// only one. When two messages both reach the threshold (possible when it
/// is at most half the responses) the processor stays undecided and tries
/// again next loop, so the outcome never depends on tally order. Sorts
/// msgs[0, count) in place.
std::optional<std::uint64_t> a2e_decision(std::uint64_t* msgs,
                                          std::size_t count,
                                          std::size_t threshold);

class AlmostToEverywhere {
 public:
  AlmostToEverywhere(const A2EParams& params, std::uint64_t seed);

  /// `message[p]` is p's current belief (knowledgeable procs hold M,
  /// confused procs hold something else); `truth_m` is the ground-truth
  /// knowledgeable message for stats; `label_view(loop, p)` is p's view of
  /// the loop's global random label in [0, sqrt_n).
  A2EResult run(
      Network& net, Adversary& adversary,
      const std::vector<std::uint64_t>& message, std::uint64_t truth_m,
      const std::function<std::uint64_t(std::size_t, ProcId)>& label_view);

 private:
  A2EParams params_;
  Rng rng_;
};

}  // namespace ba
