// Cached share-pipeline crypto: amortized Shamir dealing and robust
// word-vector decoding.
//
// The share pipeline (ShareFlow, Section 3.2.3) uses a small, fixed set of
// scheme shapes over and over: one (k1, t1) scheme per leaf dealing, one
// (d_up, t_up) scheme per uplink re-dealing, and the mirrored point sets on
// the way back down. The seed constructed a fresh ShamirScheme — and with
// it, per-word Horner evaluation and per-call interpolation setup — at
// every call site. This header owns the amortization:
//
//  * CachedScheme, keyed by (n, t): a precomputed Vandermonde dealing
//    matrix V[i][j] = x_i^{j+1} for x_i = 1..n. Dealing a w-word secret is
//    then one (n x t) x (t x w) matrix product, blocked over words so the
//    independent products pipeline (Horner's chain is latency-bound on the
//    128-bit Mersenne multiply). Randomness is drawn word-major, degrees
//    1..t, exactly like ShamirScheme::deal — cached dealing is
//    byte-identical to the seed path for the same Rng state.
//
//  * RobustDecoder, keyed by (point set, t): one information set per
//    disjoint block of t+1 shares (a BarycentricInterpolator through the
//    block plus one check row per other share) and, built on the first
//    word that no block decodes, a GaoContext (g0 and the Lagrange-basis
//    matrix) whose inversion-free decode keeps every working polynomial
//    in the caller's Scratch. A block whose interpolant disagrees with at
//    most max_errors shares is the unique decoding, so Gao runs only for
//    words with a corrupted share in every block (see RobustDecoder).
//    robust_reconstruct() in berlekamp_welch.h is the uncached entry
//    point over the same code.
//
//  * SchemeCache: owns both maps. Entries are allocated once and have
//    stable addresses; a ShareFlow holds one cache for its lifetime, so
//    every dealing after the first per shape is free of setup cost.
//
// Threading (the parallel round engine, common/pool.h): precompute and
// per-call scratch are split explicitly. Everything computed at
// construction — dealing matrices, information-set rows, Gao point-set
// contexts and their basis matrices — is immutable afterwards (asserted
// via precompute_fingerprint() in the tests), and no const method writes
// member state: the Gao context is built once under std::call_once and
// every other working buffer is the caller's. So any number of workers
// may share one scheme or decoder by const reference. The hot paths take
// per-worker scratch (draw_coeffs + deal_from_coeffs, reconstruct_into);
// deal() and reconstruct() allocate their buffers per call.
//
// SchemeCache's lookups insert on a miss, so they are driver-side and
// serial: the driver resolves every entry a parallel batch needs and
// hands the workers const references. Scheme references live as long as
// the cache. Decoder references live until trim_decoders(), which the
// owner calls when it drops whatever holds them (ShareFlow: right after
// it drops its exposure plans), so the decoder map is bounded by the
// owner's plan lifetime, not by a lookup-time eviction.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/arena.h"
#include "common/field.h"
#include "common/rng.h"
#include "crypto/gao.h"
#include "crypto/shamir.h"

namespace ba {

/// A (n, t) Shamir scheme with its dealing matrix precomputed. Evaluation
/// points are the scheme's canonical x = 1..n.
class CachedScheme {
 public:
  CachedScheme(std::size_t num_shares, std::size_t privacy_threshold);

  std::size_t num_shares() const { return n_; }
  std::size_t privacy_threshold() const { return t_; }
  std::size_t shares_needed() const { return t_ + 1; }

  /// Deal shares of `secret`; byte-identical to
  /// ShamirScheme(n, t).deal(secret, rng) for the same rng state. Exactly
  /// draw_coeffs + deal_from_coeffs over a local coefficient buffer.
  std::vector<VectorShare> deal(const std::vector<Fp>& secret,
                                Rng& rng) const;

  /// The two halves of deal(), split so the randomness draw (serial —
  /// draw order is the protocols' byte-parity anchor) can be separated
  /// from the Vandermonde product (parallel; see ShareFlow):
  ///
  /// draw_coeffs consumes exactly the draws deal() would (word-major,
  /// degrees 1..t) into `coeffs`; deal_from_coeffs is pure compute over
  /// the immutable precompute — const, safe from any worker. `out` is
  /// resized and overwritten, so a reused vector deals without
  /// reallocating.
  void draw_coeffs(std::size_t words, Rng& rng,
                   std::vector<Fp>& coeffs) const;
  void deal_from_coeffs(const std::vector<Fp>& secret,
                        const std::vector<Fp>& coeffs,
                        std::vector<VectorShare>& out) const;

  /// Order-independent digest of the precompute (the dealing matrix).
  /// Stable for the lifetime of the scheme; tests assert no call path
  /// mutates it.
  std::uint64_t precompute_fingerprint() const;

 private:
  std::size_t n_;
  std::size_t t_;
  std::vector<Fp> vand_;  ///< row-major n x t: vand_[i*t + j] = (i+1)^{j+1}
};

/// Robust word-vector decoding over one fixed point set. Point order
/// matters (shares must be passed in the same order as `xs`).
///
/// Decode order per word, with k = t + 1 and e = max_errors():
///  1. Information sets: the disjoint k-blocks [j*k, (j+1)*k) of the
///     shares, block 0 first. A block's interpolant is checked against
///     the other m - k shares, stopping once more than e disagree; the
///     first block within e disagreements gives the word's value. Block
///     0 alone is tried when some point repeats (with a budget of zero)
///     or when e is zero.
///  2. Gao (or Berlekamp–Welch on a point set with repeats), only when
///     every block fails.
/// With distinct points and m >= t + 1 + 2e, two polynomials of degree
/// <= t differ in at least m - t >= 2e + 1 points, so at most one lies
/// within e of the word: every accepted value is exactly the one Gao
/// returns, and every word no block accepts still ends in Gao. Any word
/// with fewer corrupted shares than there are blocks (and at most e) has
/// a clean block and never reaches Gao.
class RobustDecoder {
 public:
  /// Per-word value scratch; own one per worker for concurrent decoding
  /// against a shared decoder.
  struct Scratch {
    std::vector<Fp> ys;       ///< all m values of the current word
    GaoContext::Scratch gao;  ///< damaged-word working polynomials
    /// Running counts, not working state: the owner reads and resets
    /// them. damaged_words: words that missed the zero-error check on
    /// block 0. gao_words: words that failed every block and paid a Gao
    /// decode.
    std::uint64_t damaged_words = 0;
    std::uint64_t gao_words = 0;
  };

  /// `xs` are the shares' evaluation points in share order; `t` the privacy
  /// threshold. The error budget is (xs.size() - t - 1) / 2, as in
  /// robust_reconstruct().
  RobustDecoder(std::vector<Fp> xs, std::size_t privacy_threshold);

  const std::vector<Fp>& points() const { return xs_; }
  std::size_t privacy_threshold() const { return t_; }
  std::size_t max_errors() const { return max_errors_; }

  /// Per-word robust reconstruction of shares (whose x values must match
  /// points(), in order). Returns nullopt if any word fails to decode.
  /// reconstruct_into over a local Scratch.
  std::optional<std::vector<Fp>> reconstruct(
      const std::vector<VectorShare>& shares) const;

  /// Span-based reconstruction for the arena-backed share flows:
  /// shares[i] holds the word values for points()[i] (same order
  /// contract as reconstruct), every span `words` long. On success writes
  /// the secret into out[0..words) and returns true. Besides `scratch`,
  /// only the immutable precompute is touched (the lazily built Gao
  /// context is guarded by std::call_once and immutable once built), so
  /// concurrent calls with distinct scratches are safe; `out` runs of
  /// concurrent calls must not overlap.
  bool reconstruct_into(const FpSpan* shares, std::size_t count,
                        std::size_t words, Fp* out, Scratch& scratch) const;

  /// Order-independent digest of the precompute (points, every block's
  /// check rows, flags, and the Gao context once the first word that
  /// reaches Gao has built it). Stable from then on; tests assert no call
  /// path mutates it. Not safe concurrently with a decode that may build
  /// the context.
  std::uint64_t precompute_fingerprint() const;

 private:
  /// One information set: the k shares [first, first + k), the
  /// interpolator through their points, and one check row per other
  /// share in ascending share order (row r checks share r below the
  /// block, share r + k above it).
  struct InfoSet {
    std::size_t first;
    BarycentricInterpolator interp;
    std::vector<Fp> rows;  ///< (m - k) rows of k values, back to back
  };

  /// Step 1 for scratch.ys: the value from the first block within
  /// budget, or false. Counts the word in damaged_words when it misses
  /// block 0's zero-error check (or there is no block).
  bool decode_on_sets(Scratch& scratch, Fp& value) const;
  /// Step 2: Gao (Berlekamp–Welch on repeated points) for scratch.ys.
  std::optional<Fp> decode_word(Scratch& scratch) const;
  const GaoContext& gao() const;  ///< built on the first word to reach Gao

  std::vector<Fp> xs_;
  std::size_t t_;
  std::size_t max_errors_;
  std::size_t set_budget_ = 0;  ///< disagreements a block may accept
  bool all_distinct_ = false;   ///< Gao usable (every point distinct)
  std::vector<InfoSet> sets_;   ///< empty when the first k points repeat
  mutable std::once_flag gao_once_;        ///< one-shot Gao construction
  mutable std::optional<GaoContext> gao_;  ///< immutable once built
};

/// Owner of cached schemes and decoders (see the header comment for the
/// lifetime rules). Lookups insert on a miss: serial, driver-side only.
class SchemeCache {
 public:
  /// Decoders the map may hold after trim_decoders(). Far above any
  /// realistic distinct-survivor-pattern count per plan lifetime; the
  /// bound only exists to cap pathological runs.
  static constexpr std::size_t kMaxDecoders = 4096;

  /// The (n, t) scheme over canonical points 1..n. Valid for the cache's
  /// lifetime.
  const CachedScheme& scheme(std::size_t num_shares,
                             std::size_t privacy_threshold);

  /// The decoder for an explicit, ordered point set. Valid until the next
  /// trim_decoders() that clears the map.
  const RobustDecoder& robust(const std::vector<Fp>& xs,
                              std::size_t privacy_threshold);

  /// Clear the decoder map if it holds more than kMaxDecoders entries
  /// (they rebuild on demand); otherwise a no-op. Call only once no
  /// robust() reference is held.
  void trim_decoders();

 private:
  std::unordered_map<std::uint64_t, std::unique_ptr<CachedScheme>> schemes_;
  // Decoders bucketed by a hash of (xs, t); each bucket is scanned for an
  // exact point-set match, so hash collisions only cost a comparison.
  std::unordered_map<std::uint64_t,
                     std::vector<std::unique_ptr<RobustDecoder>>>
      decoders_;
  std::size_t decoder_count_ = 0;
};

}  // namespace ba
