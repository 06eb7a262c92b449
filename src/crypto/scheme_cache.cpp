#include "crypto/scheme_cache.h"

#include <algorithm>

#include "common/simd.h"
#include "crypto/berlekamp_welch.h"

namespace ba {

// ------------------------------------------------------- CachedScheme --

CachedScheme::CachedScheme(std::size_t num_shares,
                           std::size_t privacy_threshold)
    : n_(num_shares), t_(privacy_threshold) {
  BA_REQUIRE(n_ >= 1, "need at least one share");
  BA_REQUIRE(t_ + 1 <= n_, "reconstruction must be possible from all shares");
  BA_REQUIRE(n_ < Fp::kP, "evaluation points must be distinct field elements");
  // vand_[i * t + j] = (i + 1)^{j + 1}: the non-constant monomials at the
  // canonical points. The constant column is implicit (always the secret).
  vand_.resize(n_ * t_);
  for (std::size_t i = 0; i < n_; ++i) {
    const Fp x(static_cast<std::uint64_t>(i + 1));
    Fp pw = x;
    for (std::size_t j = 0; j < t_; ++j) {
      vand_[i * t_ + j] = pw;
      pw *= x;
    }
  }
}

std::vector<VectorShare> CachedScheme::deal(const std::vector<Fp>& secret,
                                            Rng& rng) const {
  std::vector<Fp> coeffs;
  draw_coeffs(secret.size(), rng, coeffs);
  std::vector<VectorShare> shares;
  deal_from_coeffs(secret, coeffs, shares);
  return shares;
}

std::uint64_t CachedScheme::precompute_fingerprint() const {
  Fnv1a d;
  d.mix(n_);
  d.mix(t_);
  for (const Fp& v : vand_) d.mix(v.value());
  return d.h;
}

void CachedScheme::draw_coeffs(std::size_t words, Rng& rng,
                               std::vector<Fp>& coeffs) const {
  // The seed's draw order (word-major, degrees 1..t) — this keeps cached
  // dealing byte-identical to ShamirScheme::deal for the same Rng state.
  coeffs.resize(words * t_);
  for (std::size_t w = 0; w < words; ++w)
    for (std::size_t j = 0; j < t_; ++j) coeffs[w * t_ + j] = Fp(rng.next());
}

void CachedScheme::deal_from_coeffs(const std::vector<Fp>& secret,
                                    const std::vector<Fp>& coeffs,
                                    std::vector<VectorShare>& out) const {
  const std::size_t words = secret.size();
  out.resize(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    out[i].x = static_cast<std::uint32_t>(i + 1);
    out[i].ys.resize(words);
  }
  if (t_ == 0) {  // degenerate scheme: the share is the secret
    for (std::size_t i = 0; i < n_; ++i)
      std::copy(secret.begin(), secret.end(), out[i].ys.begin());
    return;
  }
  BA_REQUIRE(coeffs.size() == words * t_, "coefficient buffer wrong shape");
  // Y = secret + V * C, blocked four words at a time through the
  // deferred-reduction dot kernels (common/simd.h): raw products
  // accumulate unreduced and fold mod 2^61 - 1 once per chunk. Exact
  // field arithmetic, so the shares match the per-term-reducing Horner
  // path bit for bit whichever backend is compiled in.
  for (std::size_t i = 0; i < n_; ++i) {
    const Fp* vrow = &vand_[i * t_];
    std::vector<Fp>& ys = out[i].ys;
    std::size_t w = 0;
    std::uint64_t init[4];
    std::uint64_t folded[4];
    for (; w + 4 <= words; w += 4) {
      const Fp* c0 = &coeffs[w * t_];
      for (std::size_t k = 0; k < 4; ++k) init[k] = secret[w + k].value();
      simd::dot4_mod_p(vrow, c0, c0 + t_, c0 + 2 * t_, c0 + 3 * t_, t_, init,
                       folded);
      for (std::size_t k = 0; k < 4; ++k) ys[w + k] = Fp(folded[k]);
    }
    for (; w < words; ++w)
      ys[w] = Fp(simd::dot_mod_p(vrow, &coeffs[w * t_], t_,
                                 secret[w].value()));
  }
}

// ------------------------------------------------------ RobustDecoder --

RobustDecoder::RobustDecoder(std::vector<Fp> xs,
                             std::size_t privacy_threshold)
    : xs_(std::move(xs)), t_(privacy_threshold) {
  const std::size_t m = xs_.size();
  BA_REQUIRE(m >= t_ + 1, "not enough points for the threshold");
  max_errors_ = (m - t_ - 1) / 2;
  const std::size_t k = t_ + 1;
  bool head_distinct = true;
  for (std::size_t i = 0; i < k && head_distinct; ++i)
    for (std::size_t j = i + 1; j < k; ++j)
      if (xs_[i] == xs_[j]) {
        head_distinct = false;
        break;
      }
  all_distinct_ = head_distinct;
  for (std::size_t i = 0; i < m && all_distinct_; ++i)
    for (std::size_t j = std::max(i + 1, k); j < m; ++j)
      if (xs_[i] == xs_[j]) {
        all_distinct_ = false;
        break;
      }
  if (!head_distinct) return;
  // Uniqueness within the error budget needs distinct points; with a
  // repeat, block 0 only accepts an exact match.
  set_budget_ = all_distinct_ ? max_errors_ : 0;
  const std::size_t blocks = set_budget_ > 0 ? m / k : 1;
  sets_.reserve(blocks);
  for (std::size_t j = 0; j < blocks; ++j) {
    const std::size_t first = j * k;
    InfoSet set{first,
                BarycentricInterpolator(std::vector<Fp>(
                    xs_.begin() + static_cast<std::ptrdiff_t>(first),
                    xs_.begin() + static_cast<std::ptrdiff_t>(first + k))),
                {}};
    set.rows.reserve((m - k) * k);
    for (std::size_t i = 0; i < m; ++i) {
      if (i >= first && i < first + k) continue;
      const std::vector<Fp> row = set.interp.row_at(xs_[i]);
      set.rows.insert(set.rows.end(), row.begin(), row.end());
    }
    sets_.push_back(std::move(set));
  }
}

std::uint64_t RobustDecoder::precompute_fingerprint() const {
  Fnv1a d;
  d.mix(t_);
  d.mix(max_errors_);
  d.mix(set_budget_);
  d.mix(all_distinct_ ? 1 : 0);
  for (const Fp& x : xs_) d.mix(x.value());
  for (const InfoSet& set : sets_) {
    d.mix(set.first);
    for (const Fp& v : set.rows) d.mix(v.value());
  }
  if (gao_) d.mix(gao_->precompute_fingerprint());
  return d.h;
}

const GaoContext& RobustDecoder::gao() const {
  // The first word to reach Gao pays the setup; call_once makes the
  // handoff safe when workers race here, and the context is immutable
  // afterwards.
  std::call_once(gao_once_, [this] { gao_.emplace(xs_); });
  return *gao_;
}

bool RobustDecoder::decode_on_sets(Scratch& scratch, Fp& value) const {
  const std::size_t k = t_ + 1;
  const std::size_t checks = xs_.size() - k;
  const Fp* ys = scratch.ys.data();
  if (sets_.empty()) ++scratch.damaged_words;
  for (const InfoSet& set : sets_) {
    // Interpolate through the block, count disagreements elsewhere.
    const Fp* block = ys + set.first;
    std::size_t misses = 0;
    for (std::size_t r = 0; r < checks && misses <= set_budget_; ++r)
      if (Fp(simd::dot_mod_p(&set.rows[r * k], block, k, 0)) !=
          ys[r < set.first ? r : r + k])
        ++misses;
    if (set.first == 0 && misses > 0) ++scratch.damaged_words;
    if (misses <= set_budget_) {
      value = Fp(simd::dot_mod_p(set.interp.zero_row().data(), block, k, 0));
      return true;
    }
  }
  return false;
}

std::optional<Fp> RobustDecoder::decode_word(Scratch& scratch) const {
  if (all_distinct_) {
    if (max_errors_ == 0) return std::nullopt;
    ++scratch.gao_words;
    if (!gao().decode(scratch.ys.data(), t_, max_errors_, scratch.gao))
      return std::nullopt;
    return scratch.gao.msg[0];
  }
  std::optional<std::vector<Fp>> p;
  if (sets_.empty())
    p = berlekamp_welch(xs_, scratch.ys, t_, 0);  // degenerate point set
  if (!p && max_errors_ > 0)
    p = berlekamp_welch(xs_, scratch.ys, t_, max_errors_);
  if (!p) return std::nullopt;
  return (*p)[0];
}

std::optional<std::vector<Fp>> RobustDecoder::reconstruct(
    const std::vector<VectorShare>& shares) const {
  const std::size_t m = xs_.size();
  BA_REQUIRE(shares.size() == m, "share count must match the point set");
  const std::size_t words = shares.empty() ? 0 : shares.front().ys.size();
  std::vector<FpSpan> spans(m);
  for (std::size_t i = 0; i < m; ++i)
    spans[i] = FpSpan{shares[i].ys.data(), shares[i].ys.size()};
  std::vector<Fp> secret(words);
  Scratch scratch;
  if (!reconstruct_into(spans.data(), m, words, secret.data(), scratch))
    return std::nullopt;
  return secret;
}

bool RobustDecoder::reconstruct_into(const FpSpan* shares, std::size_t count,
                                     std::size_t words, Fp* out,
                                     Scratch& scratch) const {
  const std::size_t m = xs_.size();
  BA_REQUIRE(count == m, "share count must match the point set");
  for (std::size_t i = 0; i < m; ++i)
    BA_REQUIRE(shares[i].size() == words, "ragged share vectors");
  scratch.ys.resize(m);
  for (std::size_t w = 0; w < words; ++w) {
    for (std::size_t i = 0; i < m; ++i) scratch.ys[i] = shares[i][w];
    if (decode_on_sets(scratch, out[w])) continue;
    auto value = decode_word(scratch);
    if (!value) return false;
    out[w] = *value;
  }
  return true;
}

// -------------------------------------------------------- SchemeCache --

namespace {

std::uint64_t scheme_key(std::size_t num_shares,
                         std::size_t privacy_threshold) {
  return (static_cast<std::uint64_t>(num_shares) << 32) |
         static_cast<std::uint64_t>(privacy_threshold);
}

/// Bucket hash over (t, xs).
std::uint64_t robust_key_hash(const std::vector<Fp>& xs,
                              std::size_t privacy_threshold) {
  Fnv1a d;
  d.mix(privacy_threshold);
  for (const Fp& x : xs) d.mix(x.value());
  return d.h;
}

}  // namespace

const CachedScheme& SchemeCache::scheme(std::size_t num_shares,
                                        std::size_t privacy_threshold) {
  auto& slot = schemes_[scheme_key(num_shares, privacy_threshold)];
  if (!slot)
    slot = std::make_unique<CachedScheme>(num_shares, privacy_threshold);
  return *slot;
}

const RobustDecoder& SchemeCache::robust(const std::vector<Fp>& xs,
                                         std::size_t privacy_threshold) {
  auto& bucket = decoders_[robust_key_hash(xs, privacy_threshold)];
  for (const auto& dec : bucket)
    if (dec->privacy_threshold() == privacy_threshold && dec->points() == xs)
      return *dec;
  bucket.push_back(std::make_unique<RobustDecoder>(xs, privacy_threshold));
  ++decoder_count_;
  return *bucket.back();
}

void SchemeCache::trim_decoders() {
  if (decoder_count_ <= kMaxDecoders) return;
  decoders_.clear();
  decoder_count_ = 0;
}

}  // namespace ba
