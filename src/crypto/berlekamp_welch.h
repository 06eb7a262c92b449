// Berlekamp–Welch robust decoding over GF(2^61 - 1).
//
// The paper's scheme is non-verifiable: wrong shares injected by corrupted
// processors make a plain Lagrange reconstruction wrong, and the protocol
// compensates with node-level majorities (sendOpen, Section 3.2.3). This
// decoder is the library's *extension* (Conclusion: "can the techniques be
// made practical?"): with m shares of a degree-t polynomial it corrects up
// to (m - t - 1) / 2 arbitrary share corruptions, which the E12 ablation
// bench compares against majority-only recovery.
//
// The hot path decodes damaged words with Gao's algorithm (crypto/gao.h)
// behind RobustDecoder (crypto/scheme_cache.h). berlekamp_welch() stays
// as the decoder for degenerate (duplicated-point) share sets and as the
// per-word oracle the tests diff Gao against; robust_reconstruct() is the
// uncached entry point over the tiered decoder.
#pragma once

#include <optional>
#include <vector>

#include "common/field.h"
#include "crypto/shamir.h"

namespace ba {

/// Solve A z = b over GF(p) by fraction-free Gaussian elimination (one
/// batched pivot inversion for the whole solve). A is row-major
/// rows x cols; returns any solution (free variables set to zero) or
/// nullopt if inconsistent.
std::optional<std::vector<Fp>> solve_linear(std::vector<std::vector<Fp>> a,
                                            std::vector<Fp> b);

/// Decode the unique polynomial of degree <= degree passing through all but
/// at most `max_errors` of the points (xs[i], ys[i]). Returns coefficients
/// (constant term first) or nullopt when decoding fails (too many errors).
/// Requires xs distinct and xs.size() >= degree + 1 + 2 * max_errors.
std::optional<std::vector<Fp>> berlekamp_welch(const std::vector<Fp>& xs,
                                               const std::vector<Fp>& ys,
                                               std::size_t degree,
                                               std::size_t max_errors);

/// Robust word-vector reconstruction with the largest error budget the
/// share count allows — the single entry point over the tiered decoder
/// (crypto/scheme_cache.h): a word costs O(m * (m - t)) multiplications
/// and no inversions per information set (a block of t + 1 shares whose
/// precomputed barycentric rows check the rest) it is tried on; a word
/// that every set rejects is decoded by Gao's extended-Euclid algorithm
/// (O(m^2), crypto/gao.h), with Berlekamp–Welch kept for degenerate
/// (duplicated-point) share sets. Returns nullopt if any word fails to
/// decode.
std::optional<std::vector<Fp>> robust_reconstruct(
    const std::vector<VectorShare>& shares, std::size_t privacy_threshold);

}  // namespace ba
