// Iterated secret sharing — Definition 1 of the paper.
//
// "If a processor knows a share of a secret, it can treat that share as a
//  secret. To share that share with n2 processors ... it creates and
//  distributes shares of the share using a (n2, t2+1) mechanism and deletes
//  its original share from memory. This can be iterated many times. We
//  define a 1-share of a secret to be a share of a secret and an i-share
//  of a secret to be a share of an (i-1)-share of a secret."
//
// `redeal` turns an i-share into i+1-shares; `recombine` inverts one
// iteration; `recover_secret` inverts the first. The tree protocol
// (src/core/almost_everywhere.*) owns the *routing* of these shares along
// uplinks; this header owns only the algebra, so Lemma 1's hiding property
// can be tested in isolation (bench E8).
#pragma once

#include <vector>

#include "crypto/shamir.h"

namespace ba {

/// Share an (i-1)-share among `n` holders with privacy threshold `t`:
/// its ys-vector becomes the new secret. The evaluation point of `parent`
/// is positional metadata the caller keeps; it is not re-shared.
std::vector<VectorShare> redeal(const VectorShare& parent, std::size_t n,
                                std::size_t t, Rng& rng);

/// Recombine >= t+1 i-shares (all dealt from one (i-1)-share by `redeal`)
/// into that (i-1)-share, whose evaluation point was `parent_x`.
VectorShare recombine(const std::vector<VectorShare>& shares,
                      std::uint32_t parent_x, std::size_t t);

/// Recover the original secret from >= t+1 1-shares.
std::vector<Fp> recover_secret(const std::vector<VectorShare>& shares,
                               std::size_t t);

}  // namespace ba
