#include "crypto/berlekamp_welch.h"

#include "crypto/scheme_cache.h"

namespace ba {

std::optional<std::vector<Fp>> solve_linear(std::vector<std::vector<Fp>> a,
                                            std::vector<Fp> b) {
  const std::size_t rows = a.size();
  BA_REQUIRE(b.size() == rows, "rhs size must match row count");
  const std::size_t cols = rows == 0 ? 0 : a[0].size();

  // Fraction-free forward elimination: rows below the pivot are updated as
  // row <- row * pivot - factor * pivot_row (scaling a row by a non-zero
  // field element preserves the solution set), so no division happens in
  // the O(n^3) loop. The pivots are inverted together afterwards — one
  // Fermat exponentiation for the whole solve instead of one per row.
  std::vector<std::size_t> pivot_col_of_row;
  std::vector<Fp> pivots;
  std::size_t row = 0;
  for (std::size_t col = 0; col < cols && row < rows; ++col) {
    std::size_t pr = row;
    while (pr < rows && a[pr][col].is_zero()) ++pr;
    if (pr == rows) continue;
    std::swap(a[pr], a[row]);
    std::swap(b[pr], b[row]);
    const Fp piv = a[row][col];
    for (std::size_t r = row + 1; r < rows; ++r) {
      if (a[r][col].is_zero()) continue;
      const Fp f = a[r][col];
      for (std::size_t c = col; c < cols; ++c)
        a[r][c] = a[r][c] * piv - f * a[row][c];
      b[r] = b[r] * piv - f * b[row];
    }
    pivot_col_of_row.push_back(col);
    pivots.push_back(piv);
    ++row;
  }
  // Inconsistency: a zero row with non-zero rhs.
  for (std::size_t r = row; r < rows; ++r)
    if (!b[r].is_zero()) return std::nullopt;

  batch_inverse(pivots);
  std::vector<Fp> z(cols, Fp(0));  // free variables stay zero
  for (std::size_t r = pivot_col_of_row.size(); r-- > 0;) {
    const std::size_t pc = pivot_col_of_row[r];
    Fp s = b[r];
    for (std::size_t c = pc + 1; c < cols; ++c) s -= a[r][c] * z[c];
    z[pc] = s * pivots[r];
  }
  return z;
}

std::optional<std::vector<Fp>> berlekamp_welch(const std::vector<Fp>& xs,
                                               const std::vector<Fp>& ys,
                                               std::size_t degree,
                                               std::size_t max_errors) {
  const std::size_t m = xs.size();
  BA_REQUIRE(ys.size() == m, "point vectors must pair up");
  BA_REQUIRE(m >= degree + 1 + 2 * max_errors,
             "not enough points for this error budget");
  if (max_errors == 0) {
    // Interpolate directly and verify all points agree.
    std::vector<Fp> pxs(xs.begin(), xs.begin() + degree + 1);
    std::vector<Fp> pys(ys.begin(), ys.begin() + degree + 1);
    bool distinct = true;
    for (std::size_t i = 0; i <= degree && distinct; ++i)
      for (std::size_t j = i + 1; j <= degree; ++j)
        if (pxs[i] == pxs[j]) {
          distinct = false;
          break;
        }
    if (distinct) {
      // Newton interpolation: O(d^2) with one batched inversion, replacing
      // the seed's O(d^3) Vandermonde solve with an inverse per pivot.
      auto sol = interpolate_coeffs(pxs, pys);
      for (std::size_t i = 0; i < m; ++i)
        if (poly_eval(sol, xs[i]) != ys[i]) return std::nullopt;
      return sol;
    }
    // Degenerate duplicated points: keep the rank-tolerant Vandermonde
    // route so behavior on malformed inputs is unchanged.
    std::vector<std::vector<Fp>> a(degree + 1,
                                   std::vector<Fp>(degree + 1, Fp(0)));
    for (std::size_t r = 0; r <= degree; ++r) {
      Fp pw(1);
      for (std::size_t c = 0; c <= degree; ++c) {
        a[r][c] = pw;
        pw *= pxs[r];
      }
    }
    auto sol = solve_linear(std::move(a), pys);
    if (!sol) return std::nullopt;
    for (std::size_t i = 0; i < m; ++i)
      if (poly_eval(*sol, xs[i]) != ys[i]) return std::nullopt;
    return sol;
  }

  // Unknowns: Q (degree <= degree + max_errors, so degree+max_errors+1
  // coefficients) and E (monic, degree exactly max_errors, so max_errors
  // free coefficients). Equation per point: Q(x_i) - y_i * E(x_i) = 0,
  // with the monic term moved to the rhs:
  //   sum_j Q_j x^j - y_i sum_{j<e} E_j x^j = y_i x^e.
  const std::size_t qn = degree + max_errors + 1;
  const std::size_t en = max_errors;
  std::vector<std::vector<Fp>> a(m, std::vector<Fp>(qn + en, Fp(0)));
  std::vector<Fp> b(m);
  for (std::size_t i = 0; i < m; ++i) {
    Fp pw(1);
    for (std::size_t j = 0; j < qn; ++j) {
      a[i][j] = pw;
      pw *= xs[i];
    }
    pw = Fp(1);
    for (std::size_t j = 0; j < en; ++j) {
      a[i][qn + j] = Fp(0) - ys[i] * pw;
      pw *= xs[i];
    }
    // pw is now x^e.
    b[i] = ys[i] * pw;
  }
  auto sol = solve_linear(std::move(a), std::move(b));
  if (!sol) return std::nullopt;
  std::vector<Fp> q(sol->begin(), sol->begin() + qn);
  std::vector<Fp> e(sol->begin() + qn, sol->end());
  e.push_back(Fp(1));  // monic x^max_errors term
  auto p = poly_divide_exact(std::move(q), e);
  if (!p) return std::nullopt;
  if (p->size() > degree + 1) {
    for (std::size_t j = degree + 1; j < p->size(); ++j)
      if (!(*p)[j].is_zero()) return std::nullopt;
    p->resize(degree + 1);
  }
  // Final verification: at most max_errors disagreements.
  std::size_t errors = 0;
  for (std::size_t i = 0; i < m; ++i)
    if (poly_eval(*p, xs[i]) != ys[i]) ++errors;
  if (errors > max_errors) return std::nullopt;
  return p;
}

std::optional<std::vector<Fp>> robust_reconstruct(
    const std::vector<VectorShare>& shares, std::size_t privacy_threshold) {
  BA_REQUIRE(!shares.empty(), "no shares");
  const std::size_t m = shares.size();
  if (m < privacy_threshold + 1) return std::nullopt;
  std::vector<Fp> xs(m);
  for (std::size_t i = 0; i < m; ++i) xs[i] = Fp(shares[i].x);
  // One-shot decoder; hot paths that see the same point set repeatedly
  // (ShareFlow::send_down) go through SchemeCache::robust instead, which
  // keeps the decoder — and its information-set precompute — alive across
  // calls.
  RobustDecoder decoder(std::move(xs), privacy_threshold);
  return decoder.reconstruct(shares);
}

}  // namespace ba
