// Sort-based plurality (mode) counting for tally loops.
//
// Node-level majorities are the paper's substitute for verifiable sharing
// (sendOpen, Section 3.2.3; sequence assessment, Section 3.5), so
// plurality counts sit on hot per-(member, word) paths. The seed recounted
// with an O(k^2) nested loop per query; this counter scans small queries
// (the common case: a leaf tally holds k1 senders, a node tally one entry
// per ell link) and sorts large ones — O(k log k) — with the exact
// tie-break the naive loop had: among values with the maximal count, the
// one whose *first occurrence* came earliest wins. (The unordered_map
// variant some call sites used instead had a hash-order-dependent
// tie-break; this one is deterministic by construction.)
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace ba {

/// Reusable plurality counter over 64-bit values (field words are fed via
/// Fp::value()). add() values between clear()s, then take winner().
/// Storage is reused across queries — no steady-state allocation.
class PluralityCounter {
 public:
  void clear() { values_.clear(); }
  bool empty() const { return values_.empty(); }
  std::size_t size() const { return values_.size(); }

  void add(std::uint64_t value) { values_.push_back(value); }

  /// A plurality with its margin: the winning value, its count, and the
  /// largest count of any other value (0 when there is none).
  struct Leader {
    std::uint64_t value = 0;
    std::size_t count = 0;
    std::size_t runner_up = 0;
  };

  /// The most frequent value; ties go to the value first added. Returns 0
  /// on an empty counter (the seed's convention for empty tallies).
  /// add()s after winner() start a fresh query via clear().
  std::uint64_t winner() { return leader().value; }

  /// winner() with its count and the runner-up count. count > runner_up
  /// iff the winner is unique, i.e. no tie-break was needed. {0, 0, 0}
  /// on an empty counter.
  Leader leader() {
    Leader top;
    if (values_.size() <= kScanCutoff) {
      // Quadratic scan over the bare words: predictable compares on a
      // contiguous array, nothing moves. Same winner as the sort path by
      // construction — scanning in add order with a strictly-greater
      // test makes the earliest first occurrence win ties.
      for (std::size_t i = 0; i < values_.size(); ++i) {
        const std::uint64_t v = values_[i];
        std::size_t count = 0;
        for (std::size_t j = 0; j < values_.size(); ++j)
          count += values_[j] == v ? 1 : 0;
        if (count > top.count) {
          // A new leader is a different value: the old one is runner-up.
          top.runner_up = std::max(top.runner_up, top.count);
          top.count = count;
          top.value = v;
        } else if (v != top.value && count > top.runner_up) {
          top.runner_up = count;
        }
      }
      return top;
    }
    // Large query: tag each value with its add index, sort, scan runs.
    items_.clear();
    items_.reserve(values_.size());
    for (std::size_t i = 0; i < values_.size(); ++i)
      items_.emplace_back(values_[i], static_cast<std::uint32_t>(i));
    std::sort(items_.begin(), items_.end());
    std::uint32_t best_first = 0;
    std::size_t run = 0;
    for (std::size_t i = 1; i <= items_.size(); ++i) {
      if (i < items_.size() && items_[i].first == items_[run].first) continue;
      const std::size_t count = i - run;
      const std::uint32_t first = items_[run].second;
      if (count > top.count || (count == top.count && first < best_first)) {
        top.runner_up = std::max(top.runner_up, top.count);
        top.count = count;
        top.value = items_[run].first;
        best_first = first;
      } else {
        top.runner_up = std::max(top.runner_up, count);
      }
      run = i;
    }
    return top;
  }

 private:
  /// Below this size the O(k^2) scan beats the O(k log k) sort (measured
  /// via the send_open_tally micro-bench; the crossover is well above
  /// every tally size the protocol produces at laptop scale).
  static constexpr std::size_t kScanCutoff = 48;

  std::vector<std::uint64_t> values_;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> items_;
};

}  // namespace ba
