#include "crypto/gao.h"

#include <utility>

#include "common/rng.h"
#include "common/simd.h"

namespace ba {

namespace {

/// Degree marker of the zero polynomial.
constexpr std::size_t kZeroPoly = static_cast<std::size_t>(-1);

/// Highest index <= bound holding a nonzero coefficient; kZeroPoly if
/// none (bound == kZeroPoly searches nothing).
std::size_t deg_at_most(const std::vector<Fp>& p, std::size_t bound) {
  for (std::size_t i = bound + 1; i-- > 0;)
    if (!p[i].is_zero()) return i;
  return kZeroPoly;
}

/// One pseudo-division step on p's first `len` coefficients:
/// p <- lc*p - c*x^k*q, q holding `qlen` <= len - k coefficients. The
/// two products of each overlapping term are summed raw and folded once.
void pseudo_step(Fp* p, std::size_t len, const Fp* q, std::size_t qlen,
                 std::size_t k, Fp lc, Fp c) {
  const std::uint64_t neg_c = (Fp(0) - c).value();
  std::size_t i = 0;
  for (; i < k; ++i) p[i] *= lc;
  for (; i < k + qlen; ++i)
    p[i] = Fp(simd::scalar::fold128(
        static_cast<unsigned __int128>(lc.value()) * p[i].value() +
        static_cast<unsigned __int128>(neg_c) * q[i - k].value()));
  for (; i < len; ++i) p[i] *= lc;
}

}  // namespace

GaoContext::GaoContext(std::vector<Fp> xs) : xs_(std::move(xs)) {
  BA_REQUIRE(!xs_.empty(), "need at least one interpolation point");
  const std::size_t m = xs_.size();
  // g0 = prod (x - x_i), built incrementally: O(m^2).
  g0_.assign(m + 1, Fp(0));
  g0_[0] = Fp(1);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t c = i + 1; c-- > 0;) {
      g0_[c + 1] += g0_[c];
      g0_[c] *= Fp(0) - xs_[i];
    }
  }
  // L_i = w_i * q_i with q_i = g0 / (x - x_i) by synthetic division and
  // w_i = 1 / q_i(x_i) = 1 / prod_{j != i} (x_i - x_j), evaluated by
  // Horner alongside; one batched inversion covers every weight.
  basis_.assign(m * m, Fp(0));
  std::vector<Fp> w(m);
  for (std::size_t i = 0; i < m; ++i) {
    Fp q(1), at = q;  // q_{m-1} = lc(g0) = 1
    basis_[(m - 1) * m + i] = q;
    for (std::size_t c = m - 1; c-- > 0;) {
      q = g0_[c + 1] + xs_[i] * q;
      basis_[c * m + i] = q;
      at = at * xs_[i] + q;
    }
    BA_REQUIRE(!at.is_zero(), "interpolation points must be distinct");
    w[i] = at;
  }
  batch_inverse(w);
  for (std::size_t c = 0; c < m; ++c)
    for (std::size_t i = 0; i < m; ++i) basis_[c * m + i] *= w[i];
}

void GaoContext::interpolate(const Fp* ys, Fp* out) const {
  const std::size_t m = xs_.size();
  for (std::size_t c = 0; c < m; ++c)
    out[c] = Fp(simd::dot_mod_p(&basis_[c * m], ys, m, 0));
}

bool GaoContext::decode(const Fp* ys, std::size_t degree,
                        std::size_t max_errors, Scratch& s) const {
  const std::size_t m = xs_.size();
  BA_REQUIRE(m >= degree + 1 + 2 * max_errors,
             "not enough points for this error budget");
  s.r0.assign(g0_.begin(), g0_.end());
  s.r1.assign(m + 1, Fp(0));
  interpolate(ys, s.r1.data());
  s.msg.assign(degree + 1, Fp(0));
  std::size_t d1 = deg_at_most(s.r1, m - 1);
  if (d1 == kZeroPoly || d1 <= degree) {
    // The interpolant already has low degree: zero errors.
    for (std::size_t c = 0; d1 != kZeroPoly && c <= d1; ++c)
      s.msg[c] = s.r1[c];
    return true;
  }
  // Partial extended Euclid on (g0, g1), tracking only v, until the first
  // remainder with deg r < (m + degree + 1) / 2. Buffers keep every
  // coefficient above the tracked degree zero.
  s.v0.assign(m + 1, Fp(0));
  s.v1.assign(m + 1, Fp(0));
  s.v1[0] = Fp(1);
  std::size_t d0 = m, dv0 = kZeroPoly, dv1 = 0;
  while (d1 != kZeroPoly && 2 * d1 >= m + degree + 1) {
    // Pseudo-divide r0 by r1: r0 <- lc*r0 - c*x^k*r1 cancels r0's
    // leading term, v0 follows with the same multipliers.
    const Fp lc = s.r1[d1];
    while (d0 != kZeroPoly && d0 >= d1) {
      const Fp c = s.r0[d0];
      const std::size_t k = d0 - d1;
      pseudo_step(s.r0.data(), d0 + 1, s.r1.data(), d1 + 1, k, lc, c);
      const std::size_t vb = dv0 != kZeroPoly && dv0 > dv1 + k ? dv0 : dv1 + k;
      pseudo_step(s.v0.data(), vb + 1, s.v1.data(), dv1 + 1, k, lc, c);
      d0 = deg_at_most(s.r0, d0 - 1);
      dv0 = deg_at_most(s.v0, vb);
    }
    std::swap(s.r0, s.r1);
    std::swap(s.v0, s.v1);
    std::swap(d0, d1);
    std::swap(dv0, dv1);
  }
  // A zero remainder leaves the zero message (e.g. a zero codeword plus
  // errors). Otherwise f = r1 / v1 must be exact and of degree <= degree.
  if (d1 != kZeroPoly) {
    if (d1 < dv1 || d1 - dv1 > degree) return false;
    const Fp inv = s.v1[dv1].inverse();
    for (std::size_t qi = d1 - dv1 + 1; qi-- > 0;) {
      const Fp coef = s.r1[qi + dv1] * inv;
      s.msg[qi] = coef;
      simd::fnma_mod_p(&s.r1[qi], s.v1.data(), coef, dv1 + 1);
    }
    for (std::size_t i = 0; i < dv1; ++i)
      if (!s.r1[i].is_zero()) return false;  // v does not divide r
  }
  // u*g0 + v*g1 = r = f*v, and g0 vanishes at every point, so v vanishes
  // wherever f misses ys: at most deg v <= (m - degree - 1) / 2 points
  // disagree. Count them only for a budget tighter than that bound —
  // the same verification Berlekamp–Welch runs, point-parallel Horner.
  if (dv1 <= max_errors) return true;
  s.evals.assign(m, Fp(0));
  for (std::size_t c = degree + 1; c-- > 0;)
    simd::horner_step_mod_p(s.evals.data(), xs_.data(), s.msg[c], m);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < m; ++i)
    if (s.evals[i] != ys[i]) ++errors;
  return errors <= max_errors;
}

std::optional<std::vector<Fp>> GaoContext::decode(
    const std::vector<Fp>& ys, std::size_t degree,
    std::size_t max_errors) const {
  BA_REQUIRE(ys.size() == xs_.size(), "point vectors must pair up");
  Scratch scratch;
  if (!decode(ys.data(), degree, max_errors, scratch)) return std::nullopt;
  return std::move(scratch.msg);
}

std::uint64_t GaoContext::precompute_fingerprint() const {
  Fnv1a d;
  for (const Fp& x : xs_) d.mix(x.value());
  for (const Fp& c : g0_) d.mix(c.value());
  for (const Fp& b : basis_) d.mix(b.value());
  return d.h;
}

std::optional<std::vector<Fp>> gao_decode(const std::vector<Fp>& xs,
                                          const std::vector<Fp>& ys,
                                          std::size_t degree,
                                          std::size_t max_errors) {
  return GaoContext(xs).decode(ys, degree, max_errors);
}

}  // namespace ba
