#include "baseline/rabin_ba.h"

namespace ba {

BaselineResult run_rabin_ba(Network& net, Adversary& adversary,
                            const std::vector<std::uint8_t>& inputs,
                            CoinSource& coins, std::size_t max_rounds) {
  const std::size_t n = net.size();
  BA_REQUIRE(inputs.size() == n, "one input per processor");
  adversary.on_start(net);
  auto* rusher = dynamic_cast<VoteRusher*>(&adversary);

  RegularGraph complete = RegularGraph::complete(n);
  std::vector<ProcId> members(n);
  for (ProcId p = 0; p < n; ++p) members[p] = p;
  AebaParams params;
  params.eps = 0.0;   // threshold = exactly 2/3: Rabin's super-majority
  params.eps0 = 0.0;
  AebaMachine machine(/*context=*/0xAB17, members, &complete, params, 1);
  for (ProcId p = 0; p < n; ++p) machine.set_input(p, 0, inputs[p] != 0);

  BaselineResult result;
  bool unanimous = true;
  std::uint8_t first_good = 0;
  bool seen_good = false;
  for (ProcId p = 0; p < n; ++p) {
    if (net.is_corrupt(p)) continue;
    if (!seen_good) {
      first_good = inputs[p];
      seen_good = true;
    } else if (inputs[p] != first_good) {
      unanimous = false;
    }
  }

  std::size_t r = 0;
  for (; r < max_rounds; ++r) {
    vote_round(net, {&machine}, rusher);
    machine.tally_votes(net, coins, r);
    if (machine.agreement_fraction(0, net.corrupt_mask()) == 1.0) {
      ++r;
      break;
    }
  }
  result.rounds = r;
  result.decided_bit = machine.good_majority(0, net.corrupt_mask());
  result.agreement_fraction =
      machine.agreement_fraction(0, net.corrupt_mask());
  result.all_good_agree = result.agreement_fraction == 1.0;
  result.validity =
      !unanimous || (seen_good && result.decided_bit == (first_good != 0));
  return result;
}

}  // namespace ba
