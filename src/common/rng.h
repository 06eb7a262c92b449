// Deterministic, seedable randomness for the whole simulator.
//
// Every protocol run is reproducible from a single 64-bit seed: the
// simulation derives per-processor and per-subsystem child generators with
// `Rng::fork`, so adding randomness consumption in one component never
// perturbs another (important when comparing adversary strategies under the
// same seed).
//
// The core generator is xoshiro256** (public domain, Blackman/Vigna),
// seeded via SplitMix64 as its authors recommend.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"

namespace ba {

/// Stateless 64-bit mixer; used for seeding and for hash-derived streams.
std::uint64_t splitmix64(std::uint64_t& state);

/// Incremental FNV-1a over 64-bit words — the one mixer behind cache
/// bucket hashes, precompute fingerprints, and test run digests.
struct Fnv1a {
  std::uint64_t h = 1469598103934665603ULL;
  void mix(std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  }
};

/// xoshiro256** generator with convenience sampling helpers.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  /// UniformRandomBitGenerator interface (usable with <random> and
  /// std::shuffle).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type operator()() { return next(); }

  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). Requires bound > 0.
  std::uint64_t below(std::uint64_t bound);

  /// below(bound) for one fixed bound, with its rejection threshold and a
  /// Lemire fastmod reciprocal computed once: the same words as below()
  /// draw for draw, leaving the generator in the same state, but with no
  /// division per draw. For hot loops that draw many values in one range.
  class Bounded {
   public:
    explicit Bounded(std::uint64_t bound);
    std::uint64_t operator()(Rng& rng) const {
      for (;;) {
        const std::uint64_t r = rng.next();
        if (r >= threshold_) return mod(r);
      }
    }

   private:
    /// r % bound_ as the high word of the 192-bit product
    /// (reciprocal_ * r mod 2^128) * bound_ (Lemire, Kaser & Kurz,
    /// "Faster remainder by direct computation", 2019).
    std::uint64_t mod(std::uint64_t r) const {
      using u128 = unsigned __int128;
      const u128 low = reciprocal_ * r;
      const auto low_lo = static_cast<std::uint64_t>(low);
      const auto low_hi = static_cast<std::uint64_t>(low >> 64);
      const u128 bottom = (static_cast<u128>(low_lo) * bound_) >> 64;
      const u128 top = static_cast<u128>(low_hi) * bound_;
      return static_cast<std::uint64_t>((bottom + top) >> 64);
    }

    std::uint64_t bound_;
    std::uint64_t threshold_;
    unsigned __int128 reciprocal_;  ///< ceil(2^128 / bound_) mod 2^128
  };

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

  /// Fair coin.
  bool flip() { return (next() >> 63) != 0; }

  /// Bernoulli(p).
  bool bernoulli(double p);

  /// Uniform double in [0, 1).
  double uniform01();

  /// k distinct values sampled uniformly from [0, universe) without
  /// replacement. Requires k <= universe.
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t universe,
                                                        std::size_t k);

  /// Independent child generator; deterministic in (parent seed, tag).
  /// Forking with distinct tags yields decorrelated streams.
  Rng fork(std::uint64_t tag) const;

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace ba
