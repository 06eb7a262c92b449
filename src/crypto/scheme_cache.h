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
//  * RobustDecoder, keyed by (point set, t): the no-error fast path
//    precompute (BarycentricInterpolator through the first t+1 points plus
//    one verification row per redundant point) and, built on the first
//    damaged word, a GaoContext (g0 and the Lagrange-basis matrix) whose
//    inversion-free decode keeps every working polynomial in the caller's
//    Scratch. robust_reconstruct() in berlekamp_welch.h is the uncached
//    entry point over the same code.
//
//  * SchemeCache: owns both maps. Entries are allocated once and have
//    stable addresses; a ShareFlow holds one cache for its lifetime, so
//    every dealing after the first per shape is free of setup cost.
//
// Threading (the parallel round engine, common/pool.h): precompute and
// per-call scratch are split explicitly. Everything computed at
// construction — dealing matrices, barycentric rows, Gao point-set
// contexts and their basis matrices — is immutable afterwards (asserted
// via precompute_fingerprint() in the tests) and safe to share read-only
// across workers. Per-call scratch is the caller's: the deal_into /
// reconstruct overloads taking an explicit Scratch are const and
// thread-safe when each worker owns its Scratch, and a warm
// RobustDecoder::Scratch decodes damaged words without heap allocation.
// The scratch-less convenience overloads fall back to one internal buffer
// and stay single-threaded.
//
// SchemeCache itself follows a two-phase protocol per parallel batch
// (this is what lets ShareFlow fan deal / reconstruct batches across the
// pool without per-worker caches):
//   1. Pre-warm (driver-side, serial): prewarm(n, t) and
//      prewarm_points(xs, t) materialize every entry the batch will
//      need. These mutate the maps and must not run concurrently with
//      anything. Hold a RobustPin across the batch: while pinned the
//      bounded decoder map never hits its epoch reset (which would
//      invalidate references mid-batch); unpinning restores the bound.
//   2. Fan-out (workers, concurrent): find_scheme / find_robust are
//      const, touch the maps read-only, and are safe from any number of
//      workers — as are references captured during the pre-warm pass.
// The mutating scheme() / robust() conveniences remain the serial-path
// API; never call them while phase 2 is in flight.
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
  /// Per-call coefficient-draw scratch; own one per worker for concurrent
  /// dealing against a shared scheme.
  struct DealScratch {
    std::vector<Fp> coeffs;  ///< word-major draws (words x t)
  };

  CachedScheme(std::size_t num_shares, std::size_t privacy_threshold);

  std::size_t num_shares() const { return n_; }
  std::size_t privacy_threshold() const { return t_; }
  std::size_t shares_needed() const { return t_ + 1; }

  /// Deal shares of `secret`; byte-identical to
  /// ShamirScheme(n, t).deal(secret, rng) for the same rng state.
  std::vector<VectorShare> deal(const std::vector<Fp>& secret,
                                Rng& rng) const;

  /// Deal into a reused share vector (resized/overwritten) — the
  /// zero-allocation steady state for tight re-dealing loops. Uses the
  /// internal scratch: single caller at a time.
  void deal_into(const std::vector<Fp>& secret, Rng& rng,
                 std::vector<VectorShare>& out) const;

  /// Scratch-explicit dealing: touches no member state besides the
  /// immutable precompute, so concurrent calls with distinct scratches
  /// (and distinct Rngs) are safe.
  void deal_into(const std::vector<Fp>& secret, Rng& rng,
                 std::vector<VectorShare>& out, DealScratch& scratch) const;

  /// The two halves of deal_into, split so the randomness draw (serial —
  /// draw order is the protocols' byte-parity anchor) can be separated
  /// from the Vandermonde product (parallel; see ShareFlow):
  ///
  /// draw_coeffs consumes exactly the draws deal_into would (word-major,
  /// degrees 1..t) into `coeffs`; deal_from_coeffs is pure compute over
  /// the immutable precompute — const, no scratch, safe from any worker.
  /// deal_from_coeffs(s, c, out) after draw_coeffs(s.size(), rng, c) is
  /// byte-identical to deal_into(s, rng, out).
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
  mutable DealScratch scratch_;  ///< backs the scratch-less overload
};

/// Robust word-vector decoding over one fixed point set: the shared
/// no-error fast path plus Gao decoding for damaged words. Point order
/// matters (shares must be passed in the same order as `xs`).
class RobustDecoder {
 public:
  /// Per-word value scratch; own one per worker for concurrent decoding
  /// against a shared decoder.
  struct Scratch {
    std::vector<Fp> ys;       ///< all m values of the current word
    std::vector<Fp> head;     ///< first t+1 values
    std::vector<FpSpan> spans;  ///< share views for the vector overload
    GaoContext::Scratch gao;  ///< damaged-word working polynomials
    /// Words that missed the fast-path check and paid a robust decode.
    /// A running count, not working state: the owner reads and resets it.
    std::uint64_t damaged_words = 0;
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
  /// Uses the internal scratch: single caller at a time.
  std::optional<std::vector<Fp>> reconstruct(
      const std::vector<VectorShare>& shares) const;

  /// Scratch-explicit reconstruction: besides `scratch`, only the
  /// immutable precompute is touched (the lazily built Gao context is
  /// guarded by std::call_once and immutable once built), so concurrent
  /// calls with distinct scratches are safe.
  std::optional<std::vector<Fp>> reconstruct(
      const std::vector<VectorShare>& shares, Scratch& scratch) const;

  /// Span-based reconstruction for the arena-backed share flows:
  /// shares[i] holds the word values for points()[i] (same order
  /// contract as the vector overload), every span `words` long. On
  /// success writes the secret into out[0..words) and returns true.
  /// Thread-safe under the same distinct-scratch rule; `out` runs of
  /// concurrent calls must not overlap.
  bool reconstruct_into(const FpSpan* shares, std::size_t count,
                        std::size_t words, Fp* out, Scratch& scratch) const;

  /// Order-independent digest of the precompute (points, fast-path rows,
  /// flags, and the Gao context once the first damaged word has built
  /// it). Stable from then on; tests assert no call path mutates it. Not
  /// safe concurrently with a decode that may build the context.
  std::uint64_t precompute_fingerprint() const;

 private:
  std::optional<Fp> decode_word(Scratch& scratch) const;
  const GaoContext& gao() const;  ///< built on first damaged word

  std::vector<Fp> xs_;
  std::size_t t_;
  std::size_t max_errors_;
  bool fast_ = false;          ///< first t+1 points distinct
  bool all_distinct_ = false;  ///< Gao usable (every point distinct)
  std::optional<BarycentricInterpolator> interp_;  ///< through first t+1
  std::vector<std::vector<Fp>> check_rows_;  ///< one per redundant point
  mutable std::once_flag gao_once_;          ///< one-shot Gao construction
  mutable std::optional<GaoContext> gao_;    ///< immutable once built
  mutable Scratch scratch_;  ///< backs the scratch-less overload
};

/// Owner of cached schemes and decoders. scheme() references stay valid
/// for the cache's lifetime. robust() references stay valid until a
/// later robust() call evicts (the decoder map is bounded — under
/// adaptive corruption the survivor point sets keep changing, and an
/// unbounded map would grow for the lifetime of a long run); use them
/// immediately rather than retaining them.
class SchemeCache {
 public:
  /// Decoders cached before the map is reset and rebuilt on demand. Far
  /// above any realistic distinct-survivor-pattern count per flow; the
  /// bound only exists to cap pathological runs.
  static constexpr std::size_t kMaxDecoders = 4096;

  /// The (n, t) scheme over canonical points 1..n.
  const CachedScheme& scheme(std::size_t num_shares,
                             std::size_t privacy_threshold);

  /// The decoder for an explicit, ordered point set.
  const RobustDecoder& robust(const std::vector<Fp>& xs,
                              std::size_t privacy_threshold);

  // ---- two-phase API (see the header comment) ----

  /// Phase 1, driver-side: materialize entries ahead of a parallel
  /// batch. Aliases of scheme()/robust() under the pre-warm name — the
  /// returned references obey the same stability rules.
  const CachedScheme& prewarm(std::size_t num_shares,
                              std::size_t privacy_threshold) {
    return scheme(num_shares, privacy_threshold);
  }
  const RobustDecoder& prewarm_points(const std::vector<Fp>& xs,
                                      std::size_t privacy_threshold) {
    return robust(xs, privacy_threshold);
  }

  /// Phase 1 guard: while pinned, prewarm_points()/robust() never
  /// epoch-reset the bounded decoder map (it may temporarily exceed
  /// kMaxDecoders), so every reference collected during the batch stays
  /// valid — no miss counting, no preemptive wipe of a warm cache.
  /// unpin_robust() restores the bound, clearing the map only if the
  /// batch actually pushed it past the cap. RobustPin is the RAII form.
  void pin_robust() { robust_pinned_ = true; }
  void unpin_robust();
  class RobustPin {
   public:
    explicit RobustPin(SchemeCache& cache) : cache_(cache) {
      cache_.pin_robust();
    }
    ~RobustPin() { cache_.unpin_robust(); }
    RobustPin(const RobustPin&) = delete;
    RobustPin& operator=(const RobustPin&) = delete;

   private:
    SchemeCache& cache_;
  };

  /// Bumped every time the decoder map resets. A pre-warm pass that
  /// captures references asserts the epoch is unchanged afterwards.
  std::uint64_t robust_epoch() const { return robust_epoch_; }

  /// Phase 2, worker-side: lock-free const lookups. Read the maps
  /// without mutating; return nullptr on miss (a miss in phase 2 is a
  /// driver bug — the pre-warm pass should have covered it).
  const CachedScheme* find_scheme(std::size_t num_shares,
                                  std::size_t privacy_threshold) const;
  const RobustDecoder* find_robust(const Fp* xs, std::size_t count,
                                   std::size_t privacy_threshold) const;
  const RobustDecoder* find_robust(const std::vector<Fp>& xs,
                                   std::size_t privacy_threshold) const {
    return find_robust(xs.data(), xs.size(), privacy_threshold);
  }

 private:
  std::unordered_map<std::uint64_t, std::unique_ptr<CachedScheme>> schemes_;
  // Decoders bucketed by a hash of (xs, t); each bucket is scanned for an
  // exact point-set match, so hash collisions only cost a comparison.
  std::unordered_map<std::uint64_t,
                     std::vector<std::unique_ptr<RobustDecoder>>>
      decoders_;
  std::size_t decoder_count_ = 0;
  std::uint64_t robust_epoch_ = 0;
  bool robust_pinned_ = false;
};

}  // namespace ba
