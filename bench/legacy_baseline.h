// Bench-only copies of the seed's hot-path implementations, kept verbatim
// so BENCH_micro.json can report before/after numbers for the same build.
// These are NOT used by the library — src/ holds the optimized versions —
// and they must not be "improved": they are the measurement baseline.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/field.h"
#include "crypto/shamir.h"
#include "net/stats.h"

namespace ba::legacy {

// --- seed field reconstruction: O(m^2) products + m Fermat inverses per
// word (src/common/field.cpp before the barycentric rework). ---
inline Fp lagrange_at_zero(const std::vector<Fp>& xs,
                           const std::vector<Fp>& ys) {
  const std::size_t m = xs.size();
  Fp acc(0);
  for (std::size_t i = 0; i < m; ++i) {
    Fp num(1);
    Fp den(1);
    for (std::size_t j = 0; j < m; ++j) {
      if (j == i) continue;
      num *= Fp(0) - xs[j];
      den *= xs[i] - xs[j];
    }
    acc += ys[i] * num * den.inverse();
  }
  return acc;
}

/// Seed ShamirScheme::deal: per-word Horner evaluation at every point,
/// with the coefficient vector rebuilt per word (and, at the seed call
/// sites, the scheme itself rebuilt per dealing). Draws randomness in the
/// same order as the current path, so outputs are comparable bit for bit.
inline std::vector<VectorShare> shamir_deal(const std::vector<Fp>& secret,
                                            std::size_t n, std::size_t t,
                                            Rng& rng) {
  std::vector<VectorShare> shares(n);
  for (std::size_t i = 0; i < n; ++i) {
    shares[i].x = static_cast<std::uint32_t>(i + 1);
    shares[i].ys.resize(secret.size());
  }
  std::vector<Fp> coeffs(t + 1);
  for (std::size_t w = 0; w < secret.size(); ++w) {
    coeffs[0] = secret[w];
    for (std::size_t j = 1; j <= t; ++j) coeffs[j] = Fp(rng.next());
    for (std::size_t i = 0; i < n; ++i)
      shares[i].ys[w] = poly_eval(coeffs, Fp(shares[i].x));
  }
  return shares;
}

// --- seed damaged-word decoding: a fresh (m x (q+e)) Berlekamp–Welch
// system built and solved per word, with classic Gaussian elimination
// (one Fermat inversion per pivot row) — the pre-Gao path. ---

inline std::optional<std::vector<Fp>> solve_linear(
    std::vector<std::vector<Fp>> a, std::vector<Fp> b) {
  const std::size_t rows = a.size();
  const std::size_t cols = rows == 0 ? 0 : a[0].size();
  std::vector<std::size_t> pivot_col_of_row;
  std::size_t row = 0;
  for (std::size_t col = 0; col < cols && row < rows; ++col) {
    std::size_t pr = row;
    while (pr < rows && a[pr][col].is_zero()) ++pr;
    if (pr == rows) continue;
    std::swap(a[pr], a[row]);
    std::swap(b[pr], b[row]);
    const Fp inv = a[row][col].inverse();  // one inversion per pivot
    for (std::size_t c = col; c < cols; ++c) a[row][c] *= inv;
    b[row] *= inv;
    for (std::size_t r = row + 1; r < rows; ++r) {
      if (a[r][col].is_zero()) continue;
      const Fp f = a[r][col];
      for (std::size_t c = col; c < cols; ++c) a[r][c] -= f * a[row][c];
      b[r] -= f * b[row];
    }
    pivot_col_of_row.push_back(col);
    ++row;
  }
  for (std::size_t r = row; r < rows; ++r)
    if (!b[r].is_zero()) return std::nullopt;
  std::vector<Fp> z(cols, Fp(0));
  for (std::size_t r = pivot_col_of_row.size(); r-- > 0;) {
    const std::size_t pc = pivot_col_of_row[r];
    Fp s = b[r];
    for (std::size_t c = pc + 1; c < cols; ++c) s -= a[r][c] * z[c];
    z[pc] = s;  // pivot rows are normalized
  }
  return z;
}

inline std::optional<std::vector<Fp>> berlekamp_welch(
    const std::vector<Fp>& xs, const std::vector<Fp>& ys, std::size_t degree,
    std::size_t max_errors) {
  const std::size_t m = xs.size();
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
    b[i] = ys[i] * pw;
  }
  auto sol = legacy::solve_linear(std::move(a), std::move(b));
  if (!sol) return std::nullopt;
  std::vector<Fp> q(sol->begin(), sol->begin() + qn);
  std::vector<Fp> e(sol->begin() + qn, sol->end());
  e.push_back(Fp(1));
  auto p = poly_divide_exact(std::move(q), e);
  if (!p) return std::nullopt;
  if (p->size() > degree + 1) {
    for (std::size_t j = degree + 1; j < p->size(); ++j)
      if (!(*p)[j].is_zero()) return std::nullopt;
    p->resize(degree + 1);
  }
  std::size_t errors = 0;
  for (std::size_t i = 0; i < m; ++i)
    if (poly_eval(*p, xs[i]) != ys[i]) ++errors;
  if (errors > max_errors) return std::nullopt;
  return p;
}

/// Seed robust word-vector reconstruction of a *damaged* share vector:
/// every word pays for a full system build + solve.
inline std::optional<std::vector<Fp>> robust_reconstruct_damaged(
    const std::vector<VectorShare>& shares, std::size_t t) {
  const std::size_t m = shares.size();
  const std::size_t max_errors = (m - t - 1) / 2;
  const std::size_t words = shares.front().ys.size();
  std::vector<Fp> xs(m), ys(m);
  for (std::size_t i = 0; i < m; ++i) xs[i] = Fp(shares[i].x);
  std::vector<Fp> secret(words);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < m; ++i) ys[i] = shares[i].ys[w];
    auto p = legacy::berlekamp_welch(xs, ys, t, max_errors);
    if (!p) return std::nullopt;
    secret[w] = (*p)[0];
  }
  return secret;
}

/// Seed ShamirScheme::reconstruct: fresh Lagrange interpolation per word.
inline std::vector<Fp> shamir_reconstruct(
    const std::vector<VectorShare>& shares, std::size_t shares_needed) {
  const std::size_t m = shares_needed;
  const std::size_t words = shares.front().ys.size();
  std::vector<Fp> xs(m);
  for (std::size_t i = 0; i < m; ++i) xs[i] = Fp(shares[i].x);
  std::vector<Fp> secret(words);
  std::vector<Fp> ys(m);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < m; ++i) ys[i] = shares[i].ys[w];
    secret[w] = legacy::lagrange_at_zero(xs, ys);
  }
  return secret;
}

// --- seed network: heap-allocating payloads, one global pending vector,
// and a comparison stable_sort of every inbox every round
// (src/net/{message,network}.{h,cpp} before the bucketed rework). ---

struct Payload {
  std::uint32_t tag = 0;
  std::vector<std::uint64_t> words;
  std::size_t content_bits = 0;
  std::size_t bits() const { return content_bits + 16; }
};

inline Payload make_value_payload(std::uint32_t tag, std::uint64_t value,
                                  std::size_t bits) {
  Payload p;
  p.tag = tag;
  p.words = {value};
  p.content_bits = bits;
  return p;
}

struct Envelope {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint64_t round = 0;
  Payload payload;
};

class Network {
 public:
  Network(std::size_t n, std::size_t max_corrupt)
      : n_(n), max_corrupt_(max_corrupt), corrupt_(n, false), inboxes_(n),
        ledger_(n) {
    (void)max_corrupt_;
  }

  void send(std::uint32_t from, std::uint32_t to, Payload payload) {
    ledger_.charge_send(from, payload.bits());
    Envelope e;
    e.from = from;
    e.to = to;
    e.round = round_;
    e.payload = std::move(payload);
    pending_.push_back(std::move(e));
  }

  void advance_round() {
    for (auto& box : inboxes_) box.clear();
    for (auto& e : pending_) {
      ledger_.charge_recv(e.to, e.payload.bits());
      inboxes_[e.to].push_back(std::move(e));
    }
    pending_.clear();
    for (auto& box : inboxes_) {
      std::stable_sort(box.begin(), box.end(),
                       [](const Envelope& a, const Envelope& b) {
                         return a.from < b.from;
                       });
    }
    ++round_;
  }

  BitLedger& ledger() { return ledger_; }

 private:
  std::size_t n_;
  std::size_t max_corrupt_;
  std::uint64_t round_ = 0;
  std::vector<bool> corrupt_;
  std::vector<Envelope> pending_;
  std::vector<std::vector<Envelope>> inboxes_;
  BitLedger ledger_;
};

}  // namespace ba::legacy
