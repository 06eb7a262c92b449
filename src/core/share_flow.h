// The three communication subroutines of Section 3.2.3, operating on
// iterated shares routed along the tournament tree:
//
//  * sendSecretUp — re-deal every share one level up along the uplinks and
//    erase it locally (Definition 1 iteration). Corrupt holders may deal
//    garbage; holders whose election view excluded the array stay silent.
//  * sendDown    — unwind iterated shares level by level ("down the
//    uplinks it came from plus the corresponding uplinks from each of its
//    other children"), Berlekamp–Welch-correcting up to the error budget
//    at each recombination, until every leaf node in the subtree has
//    exchanged 1-shares and reconstructed the exposed words.
//  * sendOpen    — every leaf member reports its reconstruction up the
//    ell-links; each node member takes a per-word majority within each
//    linked leaf node, then across its linked leaf nodes.
//
// All traffic is charged to the BitLedger via Network::charge_batch — the
// per-(sender, round) batched accounting path (share flows are exactly the
// same-sender fan-out loops it is built for); round costs are advanced by
// the orchestrator (one network round per tree hop).
//
// Crypto goes through a per-flow SchemeCache (crypto/scheme_cache.h): the
// (k1, t1) leaf scheme and the (d_up, t_up) uplink scheme are built once
// and deal via their precomputed Vandermonde matrices, and sendDown's
// recombinations reuse a RobustDecoder per (point set, threshold) — the
// barycentric fast-path precompute survives across dealing groups, levels
// and exposure batches instead of being rebuilt per call. Damaged words
// decode via Gao's O(m^2) extended-Euclid decoder. Corruption draws are
// centralised in fill_garbage (core/array_state.h).
//
// Parallelism (the round engine, common/pool.h). The flows are fanned
// across the pool under the cache's two-phase protocol and a hard
// draw-order contract that keeps every run byte-identical at any worker
// count:
//
//  * Randomness never depends on scheduling: each batch splits into a
//    serial driver pass that consumes rng_ in a fixed order (dealing
//    coefficients via CachedScheme::draw_coeffs, lying holders' garbage,
//    stream salts) and a draw-free parallel pass (Vandermonde products
//    via deal_from_coeffs, robust decoding via reconstruct_into) whose
//    writes are item-indexed.
//  * Garbage that depends on a parallel result comes from salted stream
//    forks, the pool's per-item derivation: the driver takes one salt
//    from rng_ at a fixed position and each pool item draws from
//    Rng(salt).fork(item). sendDown takes one salt per tree level (after
//    the level's lying-holder draws) and one per leaf exchange (after the
//    lying 1-shares); a recombination whose decode fails fills its output
//    inside its decode item from Rng(level salt).fork((node << 32) |
//    group) or Rng(leaf salt).fork(leaf). No draw waits on a decode, so
//    each tree level decodes in one pool dispatch however many groups
//    fail — damaged words are common under a lying minority, not rare.
//  * Word storage for one exposure batch lives in a per-flow WordArena
//    (common/arena.h): decoded groups and transmitted values are
//    FpSpans, so handing a decoded record to every child of a node — the
//    dominant replication in the flow — copies pointers, not words. The
//    arena resets at the top of each batch chunk.
//
// sendOpen fans out per receiver the same way: the structural pass bins
// the surviving (leaf, member) senders per receiver (contiguous receiver
// -> leaves -> senders slices), one salt is drawn from rng_ at the call's
// serial position, and each receiver's tally runs on the pool drawing its
// lying-sender garbage from Rng(salt).fork(pos). Moving any rng_ draw or
// salt changes fixed-seed outcomes and re-pins the parity fingerprints
// and golden reports (procedure in docs/ARCHITECTURE.md). Ledger charges
// are order-independent totals and move freely between phases.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/arena.h"
#include "common/plurality.h"
#include "core/array_state.h"
#include "core/params.h"
#include "crypto/berlekamp_welch.h"
#include "crypto/scheme_cache.h"
#include "crypto/shamir.h"
#include "net/network.h"
#include "tree/tournament_tree.h"

namespace ba {

/// Reconstructions of one exposed word range at every leaf member of a
/// subtree. Values of members whose reconstruction failed (or who are
/// corrupt and lying) are garbage — exactly what downstream majorities see.
class LeafViews {
 public:
  LeafViews(std::size_t leaf_begin, std::size_t leaf_count, std::size_t k1,
            std::size_t nwords)
      : leaf_begin_(leaf_begin),
        leaf_count_(leaf_count),
        k1_(k1),
        nwords_(nwords),
        values_(leaf_count * k1 * nwords, Fp(0)) {}

  std::size_t leaf_begin() const { return leaf_begin_; }
  std::size_t leaf_count() const { return leaf_count_; }
  std::size_t k1() const { return k1_; }
  std::size_t nwords() const { return nwords_; }

  Fp at(std::size_t leaf_rel, std::size_t pos, std::size_t w) const {
    return values_[(leaf_rel * k1_ + pos) * nwords_ + w];
  }
  void set(std::size_t leaf_rel, std::size_t pos, std::size_t w, Fp v) {
    values_[(leaf_rel * k1_ + pos) * nwords_ + w] = v;
  }

 private:
  std::size_t leaf_begin_, leaf_count_, k1_, nwords_;
  std::vector<Fp> values_;
};

/// Per-member word views after sendOpen: views(pos, w).
class MemberViews {
 public:
  MemberViews(std::size_t members, std::size_t nwords)
      : nwords_(nwords), values_(members * nwords, Fp(0)) {}
  Fp at(std::size_t pos, std::size_t w) const {
    return values_[pos * nwords_ + w];
  }
  void set(std::size_t pos, std::size_t w, Fp v) {
    values_[pos * nwords_ + w] = v;
  }
  std::size_t nwords() const { return nwords_; }

 private:
  std::size_t nwords_;
  std::vector<Fp> values_;
};

/// How corrupted processors behave in share flows.
enum class FaultStyle {
  lying,   ///< send garbage shares/values (malicious; the default)
  silent,  ///< send nothing (crash faults)
  honest,  ///< follow the protocol (corruption used only for spying)
};

class ShareFlow {
 public:
  ShareFlow(const ProtocolParams& params, const TournamentTree& tree,
            Network& net, Rng rng);

  void set_fault_style(FaultStyle s) { style_ = s; }

  /// Algorithm 2 step 1(a): owner deals 1-shares of its whole array to the
  /// members of its home leaf. A corrupt owner deals arbitrary
  /// (inconsistent) shares.
  std::vector<ShareRec> deal_to_leaf(ProcId owner, std::size_t leaf_idx,
                                     const std::vector<Fp>& words);

  /// One owner's dealing in a deal_to_leaf_batch. `words` must outlive
  /// the call.
  struct DealJob {
    ProcId owner = 0;
    std::size_t leaf_idx = 0;
    const std::vector<Fp>* words = nullptr;
  };

  /// Batched step 1(a) for a whole round of dealings: randomness and
  /// charges run serially in job order (byte-identical to calling
  /// deal_to_leaf job by job), the Vandermonde products fan out across
  /// the pool. out[j] is job j's record vector.
  std::vector<std::vector<ShareRec>> deal_to_leaf_batch(
      const std::vector<DealJob>& jobs);

  /// sendSecretUp: re-deal array a's shares from its current node to the
  /// parent, keeping only words from new_offset on. `holder_forwards(pos)`
  /// gates good holders (election-view divergence); corrupt holders always
  /// "forward" but deal garbage when lying. Mutates a (level, node,
  /// offset, recs). Re-dealings of distinct records fan out across the
  /// pool (coefficients pre-drawn serially in record order).
  void send_secret_up(ArrayState& a, std::size_t new_offset,
                      const std::function<bool(std::size_t)>& holder_forwards);

  /// sendDown: expose words [w0, w1) of array a to every leaf member of
  /// the subtree of a's current node. Exactly expose_batch of one job
  /// without the open: same draws, charges and views.
  LeafViews send_down(const ArrayState& a, std::size_t w0, std::size_t w1);

  /// sendOpen: members of node (level, node_idx) learn the exposed words
  /// from the leaf views via their ell-links.
  MemberViews send_open(std::size_t level, std::size_t node_idx,
                        const LeafViews& views);

  /// One exposure in an expose_batch: array `a` exposes words [w0, w1)
  /// down its subtree and opens them at (a->level, a->node_idx). `a`
  /// must outlive the call.
  struct ExposeJob {
    const ArrayState* a = nullptr;
    std::size_t w0 = 0;
    std::size_t w1 = 0;
  };
  /// sendDown + sendOpen results of one job.
  struct Exposure {
    LeafViews views;
    MemberViews opened;
  };

  /// Batched sendDown + sendOpen for a whole level of exposures (every
  /// job at the same tree level). Byte-identical to calling send_down +
  /// send_open job by job — same Rng draw order, same ledger totals,
  /// same views — but the batch shares one arena epoch and one decoder
  /// pin per chunk, and recombinations across all jobs fan out in one
  /// pool dispatch per tree level plus one for the leaf exchanges. Each
  /// job draws, in order: per level its lying holders' garbage and then
  /// the level's failure salt, its lying 1-shares and then the leaf
  /// salt, then the sendOpen salt (see the header comment). Jobs chunk
  /// internally so a batch never holds more than a bounded window of
  /// leaf work.
  std::vector<Exposure> expose_batch(const std::vector<ExposeJob>& jobs);

  /// Network rounds one sendDown + sendOpen from `level` costs: level-1
  /// hops down, one leaf-exchange round, one ell-link round.
  static std::size_t exposure_rounds(std::size_t level) { return level + 1; }

  /// Receivers tallied by pooled sendOpen tallies so far (report extras).
  std::uint64_t open_receivers() const { return open_receivers_; }
  /// Pooled sendOpen tally dispatches so far (report extras).
  std::uint64_t open_tallies() const { return open_tallies_; }
  /// sendDown recombinations (tree groups and leaf exchanges) whose
  /// robust decode failed so far (report extras).
  std::uint64_t decode_failures() const { return decode_failures_; }
  /// Words of sendDown recombinations that missed the fast-path check
  /// and paid a robust (Gao) decode so far (report extras).
  std::uint64_t damaged_words() const { return damaged_words_; }

 private:
  /// A share record travelling down the tree: word values borrowed from
  /// the flow's arena (or the source ArrayState), replicated to children
  /// by span copy.
  struct DownRec {
    Chain chain = 0;
    std::uint32_t holder_pos = 0;
    FpSpan ys;
  };

  /// One surviving sendOpen sender: where its reported word lives in the
  /// leaf views and whether it lies. Packed to 8 bytes — the tally
  /// re-walks the whole sender list once per word, so entry size is the
  /// stage's memory-bandwidth knob. Sender identities live in the
  /// parallel OpenPlan::ids array (touched once, by the charge loop).
  struct OpenSender {
    std::uint32_t leaf_rel = 0;    ///< leaf index relative to the views
    std::uint16_t member_idx = 0;  ///< member position within the leaf
    std::uint8_t lies = 0;
  };
  /// The sendOpen structure for one node, flattened across receivers in
  /// tally order: receiver pos owns senders
  /// [leaf_ends[pos_leaf_ends[pos-1] - 1], leaf_ends[pos_leaf_ends[pos] - 1])
  /// split into leaves by leaf_ends — a contiguous
  /// (receiver -> leaves -> senders) slice per pooled tally item.
  struct OpenPlan {
    std::vector<OpenSender> senders;
    std::vector<ProcId> ids;                   ///< sender ids, same order
    std::vector<std::uint32_t> leaf_ends;      ///< prefix ends into senders
    std::vector<std::uint32_t> pos_leaf_ends;  ///< per receiver, into leaf_ends
    void clear() {
      senders.clear();
      ids.clear();
      leaf_ends.clear();
      pos_leaf_ends.clear();
    }
  };

  /// Structural pass of sendOpen (draw-free, charge-free): bin the
  /// surviving senders of node (level, node_idx) per receiver.
  void build_open_plan(std::size_t level, std::size_t node_idx,
                       std::size_t views_leaf_begin, OpenPlan& plan);

  /// sendOpen: the ledger charges (serial, receiver order), then the
  /// per-receiver pluralities over the pool, lying senders drawing from
  /// Rng(salt).fork(pos). Draw-free on rng_; writes are receiver-indexed.
  void open_tally(const TreeNode& node, const OpenPlan& plan,
                  const LeafViews& views, std::uint64_t salt,
                  MemberViews& out);

  /// The one sendDown implementation behind send_down (open = false) and
  /// expose_batch (open = true): structural, draw, per-level decode and
  /// apply passes over chunks of jobs.
  std::vector<Exposure> expose(const std::vector<ExposeJob>& jobs, bool open);

  /// fill_garbage (core/array_state.h) over an arena run.
  static void fill_garbage_span(Rng& rng, Fp* ys, std::size_t words) {
    for (std::size_t w = 0; w < words; ++w) ys[w] = Fp(rng.next());
  }
  bool lying(ProcId p) const {
    return style_ == FaultStyle::lying && net_.is_corrupt(p);
  }
  bool silent(ProcId p) const {
    return style_ == FaultStyle::silent && net_.is_corrupt(p);
  }

  /// (Re)size the per-worker scratch slots to the pool's current width.
  void ensure_worker_scratch();

  const ProtocolParams& params_;
  const TournamentTree& tree_;
  Network& net_;
  Rng rng_;
  FaultStyle style_ = FaultStyle::lying;
  SchemeCache cache_;  ///< amortized dealing matrices and robust decoders
  WordArena arena_;    ///< word storage for one exposure batch chunk

  // Per-worker scratch (common/pool.h contract: reinitialized by every
  // item that uses a slot).
  std::vector<RobustDecoder::Scratch> decode_scratch_;
  std::vector<std::vector<FpSpan>> span_scratch_;
  std::vector<std::vector<VectorShare>> deal_out_scratch_;
  std::vector<std::vector<Fp>> slice_scratch_;
  std::vector<PluralityCounter> leaf_tally_scratch_;
  std::vector<PluralityCounter> node_tally_scratch_;
  OpenPlan open_plan_scratch_;  ///< serial send_open only (expose_batch
                                ///< jobs own their plans)

  // Instrumentation for report extras (not part of any fingerprint).
  std::uint64_t open_receivers_ = 0;
  std::uint64_t open_tallies_ = 0;
  std::uint64_t decode_failures_ = 0;
  std::uint64_t damaged_words_ = 0;
};

}  // namespace ba
