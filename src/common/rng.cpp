#include "common/rng.h"

#include <unordered_set>

namespace ba {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  // xoshiro's all-zero state is absorbing; splitmix64 makes it
  // astronomically unlikely, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::below(std::uint64_t bound) {
  BA_REQUIRE(bound > 0, "below() needs a positive bound");
  // Lemire-style rejection sampling: unbiased for any bound.
  const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

Rng::Bounded::Bounded(std::uint64_t bound)
    : bound_(bound),
      threshold_(0),
      reciprocal_(0) {
  BA_REQUIRE(bound > 0, "Bounded needs a positive bound");
  threshold_ = (~bound + 1) % bound;  // as in below()
  // ceil(2^128 / bound); wraps to 0 for bound == 1, where every remainder
  // is 0 anyway.
  reciprocal_ = ~static_cast<unsigned __int128>(0) / bound + 1;
}

std::uint64_t Rng::between(std::uint64_t lo, std::uint64_t hi) {
  BA_REQUIRE(lo <= hi, "between() needs lo <= hi");
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // full 64-bit range
  return lo + below(span);
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

double Rng::uniform01() {
  // 53 random mantissa bits.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<std::uint64_t> Rng::sample_without_replacement(
    std::uint64_t universe, std::size_t k) {
  BA_REQUIRE(k <= universe, "cannot sample more than the universe size");
  std::vector<std::uint64_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (2 * k >= universe) {
    // Dense case: partial Fisher-Yates over the whole universe.
    std::vector<std::uint64_t> all(universe);
    for (std::uint64_t i = 0; i < universe; ++i) all[i] = i;
    for (std::size_t i = 0; i < k; ++i) {
      std::size_t j = i + static_cast<std::size_t>(below(universe - i));
      std::swap(all[i], all[j]);
    }
    all.resize(k);
    return all;
  }
  // Sparse case: rejection with a hash set.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(2 * k);
  while (out.size() < k) {
    std::uint64_t v = below(universe);
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

Rng Rng::fork(std::uint64_t tag) const {
  // Mix the current state with the tag through splitmix; children with
  // different tags are decorrelated, and forking does not advance *this.
  std::uint64_t mix = s_[0] ^ rotl(s_[1], 13) ^ rotl(s_[2], 29) ^
                      rotl(s_[3], 47) ^ (tag * 0x9e3779b97f4a7c15ULL);
  std::uint64_t sm = mix;
  (void)splitmix64(sm);
  return Rng(splitmix64(sm) ^ tag);
}

}  // namespace ba
