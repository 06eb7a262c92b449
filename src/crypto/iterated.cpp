#include "crypto/iterated.h"

namespace ba {

std::vector<VectorShare> redeal(const VectorShare& parent, std::size_t n,
                                std::size_t t, Rng& rng) {
  ShamirScheme scheme(n, t);
  return scheme.deal(parent.ys, rng);
}

VectorShare recombine(const std::vector<VectorShare>& shares,
                      std::uint32_t parent_x, std::size_t t) {
  BA_REQUIRE(parent_x != 0, "parent evaluation point must be non-zero");
  BA_REQUIRE(!shares.empty(), "no shares to recombine");
  ShamirScheme scheme(shares.size() > t ? shares.size() : t + 1, t);
  VectorShare parent;
  parent.x = parent_x;
  parent.ys = scheme.reconstruct(shares);
  return parent;
}

std::vector<Fp> recover_secret(const std::vector<VectorShare>& shares,
                               std::size_t t) {
  BA_REQUIRE(!shares.empty(), "no shares to recover from");
  ShamirScheme scheme(shares.size() > t ? shares.size() : t + 1, t);
  return scheme.reconstruct(shares);
}

}  // namespace ba
