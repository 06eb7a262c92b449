// Gao decoding of Reed–Solomon / Shamir words over GF(2^61 - 1).
//
// Berlekamp–Welch (crypto/berlekamp_welch.h) solves a fresh O(m^3) linear
// system per damaged word. Gao's decoder (S. Gao, "A new algorithm for
// decoding Reed-Solomon codes", 2003) reaches the same unique decoding
// radius in O(m^2) with a partial extended Euclid run on g0(x) =
// prod_i (x - x_i) and g1(x) = the interpolant through all m points,
// stopping at the first remainder r with deg r < (m + degree + 1) / 2 and
// returning f = r / v (u*g0 + v*g1 = r). A GaoContext caches what depends
// only on the points: g0 and the Lagrange-basis matrix that makes g1 m dot
// products.
//
// The Euclid run is inversion-free: each pseudo-division step sets
// r_prev <- lc(r_cur)*r_prev - c*x^k*r_cur and updates v_prev the same
// way, so every (r, v) is the classical pair times one nonzero scalar and
// the stop step and r / v are unchanged. The one inversion left per word
// is lc(v) in the final exact division. Working polynomials live in a
// caller-owned Scratch: a warm scratch decodes without heap allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/field.h"

namespace ba {

/// Per-point-set precompute for Gao decoding: g0(x) = prod (x - x_i) and
/// the Lagrange-basis matrix. Requires distinct xs (throws
/// std::logic_error otherwise). Immutable after construction, so one
/// context may serve concurrent pool workers that own distinct scratches.
class GaoContext {
 public:
  /// Working polynomials of one decode; own one per worker.
  struct Scratch {
    std::vector<Fp> r0, r1;  ///< Euclid remainders, g0 and g1 at the start
    std::vector<Fp> v0, v1;  ///< their v Bezout coefficients
    std::vector<Fp> msg;     ///< decoded message: degree + 1 coefficients
    std::vector<Fp> evals;   ///< message values (tight-budget check)
  };

  explicit GaoContext(std::vector<Fp> xs);

  const std::vector<Fp>& points() const { return xs_; }

  /// The m monomial coefficients (constant term first) of the interpolant
  /// through (points()[i], ys[i]): m dot products against the basis.
  void interpolate(const Fp* ys, Fp* out) const;

  /// Decode the unique polynomial of degree <= `degree` passing through
  /// all but at most `max_errors` of (xs[i], ys[i]), ys holding
  /// points().size() values. On success returns true with the
  /// coefficients (constant term first) in scratch.msg; false when
  /// decoding fails — the same answers as berlekamp_welch(). Requires
  /// points().size() >= degree + 1 + 2 * max_errors.
  bool decode(const Fp* ys, std::size_t degree, std::size_t max_errors,
              Scratch& scratch) const;

  /// Allocating wrapper over the scratch entry point: the coefficients
  /// (degree + 1 of them) or nullopt.
  std::optional<std::vector<Fp>> decode(const std::vector<Fp>& ys,
                                        std::size_t degree,
                                        std::size_t max_errors) const;

  /// Digest of the precompute (points, g0, basis). Stable for the
  /// context's lifetime; tests assert no decode mutates it.
  std::uint64_t precompute_fingerprint() const;

 private:
  std::vector<Fp> xs_;
  std::vector<Fp> g0_;     ///< prod_i (x - x_i), constant term first
  std::vector<Fp> basis_;  ///< basis_[c*m + i]: coefficient c of L_i
};

/// One-shot convenience wrapper: build a GaoContext and decode once.
/// Drop-in alternative to berlekamp_welch() for distinct xs.
std::optional<std::vector<Fp>> gao_decode(const std::vector<Fp>& xs,
                                          const std::vector<Fp>& ys,
                                          std::size_t degree,
                                          std::size_t max_errors);

}  // namespace ba
