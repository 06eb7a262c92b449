#include "baseline/benor_ba.h"

namespace ba {

namespace {
constexpr std::uint32_t kTagVote = 0xBE01;
constexpr std::uint32_t kTagProp = 0xBE02;
constexpr std::uint64_t kNoProposal = 2;  // "?" in Ben-Or's phase 2
}  // namespace

BaselineResult run_benor_ba(Network& net, Adversary& adversary,
                            const std::vector<std::uint8_t>& inputs,
                            std::uint64_t seed, std::size_t max_rounds,
                            std::size_t grace) {
  const std::size_t n = net.size();
  BA_REQUIRE(inputs.size() == n, "one input per processor");
  adversary.on_start(net);
  Rng rng(seed);

  const std::size_t t = net.corrupt_count() + net.corruption_budget_left();
  std::vector<std::uint8_t> value(n);
  std::vector<bool> decided(n, false);
  std::vector<std::uint8_t> decision(n, 0);
  for (ProcId p = 0; p < n; ++p) value[p] = inputs[p] != 0 ? 1 : 0;

  bool unanimous = true;
  std::uint8_t first_good = 0;
  bool seen_good = false;
  for (ProcId p = 0; p < n; ++p) {
    if (net.is_corrupt(p)) continue;
    if (!seen_good) {
      first_good = value[p];
      seen_good = true;
    } else if (value[p] != first_good) {
      unanimous = false;
    }
  }

  auto broadcast = [&](ProcId p, std::uint32_t tag, std::uint64_t v) {
    for (ProcId q = 0; q < n; ++q)
      if (q != p) net.send(p, q, make_value_payload(tag, v, 2));
  };
  // One phase's tallies, accumulated over 1 + grace delivery rounds. The
  // send-round filter keeps a delayed straggler from an earlier phase of
  // the same tag out of this phase's counts (at grace = 0 every arrival
  // carries this phase's send round, so the filter — and the whole
  // helper — reduces to the historical single-round tally).
  std::vector<std::vector<std::size_t>> phase_counts(n);
  auto tally_phase = [&](std::uint32_t tag, std::size_t values,
                         std::uint64_t send_round) {
    for (ProcId p = 0; p < n; ++p) phase_counts[p].assign(values, 0);
    for (std::size_t g = 0;; ++g) {
      for (ProcId p = 0; p < n; ++p) {
        if (net.is_corrupt(p)) continue;
        for (const auto& env : net.inbox(p)) {
          if (env.payload.tag != tag || env.payload.words.empty()) continue;
          if (env.round != send_round) continue;
          phase_counts[p][env.payload.words[0] % values] += 1;
        }
      }
      if (g == grace) break;
      net.advance_round();
    }
  };

  std::size_t r = 0;
  for (; r < max_rounds; ++r) {
    // Phase 1: broadcast current value; propose a value seen from a
    // > (n + t) / 2 super-majority.
    std::uint64_t send_round = net.round();
    for (ProcId p = 0; p < n; ++p)
      if (!net.is_corrupt(p)) broadcast(p, kTagVote, value[p]);
    net.advance_round();
    tally_phase(kTagVote, 2, send_round);
    std::vector<std::uint64_t> proposal(n, kNoProposal);
    for (ProcId p = 0; p < n; ++p) {
      if (net.is_corrupt(p)) continue;
      auto& counts = phase_counts[p];
      counts[value[p]] += 1;  // own vote
      for (std::uint64_t b = 0; b < 2; ++b)
        if (2 * counts[b] > n + t) proposal[p] = b;
    }

    // Phase 2: broadcast proposals; adopt with t+1 support, decide with
    // 2t+1, otherwise flip a local coin.
    send_round = net.round();
    for (ProcId p = 0; p < n; ++p)
      if (!net.is_corrupt(p)) broadcast(p, kTagProp, proposal[p]);
    net.advance_round();
    tally_phase(kTagProp, 3, send_round);
    bool all_decided = true;
    for (ProcId p = 0; p < n; ++p) {
      if (net.is_corrupt(p)) continue;
      auto& counts = phase_counts[p];
      counts[proposal[p]] += 1;
      std::uint64_t best = counts[0] >= counts[1] ? 0 : 1;
      if (counts[best] >= 2 * t + 1) {
        value[p] = static_cast<std::uint8_t>(best);
        if (!decided[p]) {
          decided[p] = true;
          decision[p] = value[p];
        }
      } else if (counts[best] >= t + 1) {
        value[p] = static_cast<std::uint8_t>(best);
      } else {
        value[p] = rng.flip() ? 1 : 0;
      }
      if (!decided[p]) all_decided = false;
    }
    if (all_decided) {
      ++r;
      break;
    }
  }

  BaselineResult result;
  result.rounds = r;
  std::size_t good = 0, ones = 0;
  for (ProcId p = 0; p < n; ++p) {
    if (net.is_corrupt(p)) continue;
    ++good;
    ones += (decided[p] ? decision[p] : value[p]) != 0 ? 1 : 0;
  }
  result.decided_bit = 2 * ones >= good;
  std::size_t agree = 0;
  for (ProcId p = 0; p < n; ++p) {
    if (net.is_corrupt(p)) continue;
    if (((decided[p] ? decision[p] : value[p]) != 0) == result.decided_bit)
      ++agree;
  }
  result.agreement_fraction =
      good == 0 ? 1.0 : static_cast<double>(agree) / static_cast<double>(good);
  result.all_good_agree = agree == good;
  result.validity =
      !unanimous || (seen_good && result.decided_bit == (first_good != 0));
  return result;
}

}  // namespace ba
