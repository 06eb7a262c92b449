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
// Exposure plans. sendDown and sendOpen route every exposure over a
// tree, chain set and holder set that are fixed for the run; only the
// words change, and the silent/lying masks change only when the
// adversary corrupts. So an exposure splits in two:
//
//  * the plan — everything that does not depend on the words, built once
//    per (level, node, record layout) and cached in the flow: the
//    frontier walk, each node's send list (which records are dropped,
//    which holders lie), the recombination groups with their holder
//    positions and decoder pointers, the leaf exchanges, the node's
//    sendOpen sender lists, and one aggregated charge table of
//    (processor, messages sent, messages received). The plan is index
//    based: every word run it names is a slot of one arena block of
//    slots x nwords words per exposure. Records are grouped by parent
//    chain in ascending chain order; that order fixes the next level's
//    lie-draw order, and it is computed once, when the plan is built;
//  * the instantiation — the only work on a cache hit: an exact lookup
//    by the array's (chain, holder_pos) sequence, one arena block, the
//    record copies, the lying holders' draws in plan order, the decode
//    dispatches, one Network::charge_table call per table and the
//    pooled open tally.
//
// A plan is valid while two keys hold: the tree level being exposed
// (plans of one level only are kept, which bounds the cache to one
// level) and Network::corrupt_count() (corruption only grows, so the
// masks moved iff it did). Any change drops every plan; set_fault_style
// drops them too. Plans live in the flow, so every run starts cold.
//
// The plans are also the only lifetime rule for the decoders they point
// to: the flow resolves every decoder serially while it builds a plan,
// and trims the cache's decoder map (SchemeCache::trim_decoders) right
// after it drops its plans, so no decoder pointer outlives a plan. A
// plan generation counter asserts that no drop happens while an
// exposure chunk holds plan pointers.
//
// All traffic is charged to the BitLedger through the plans' charge
// tables (Network::charge_table, which equals the same messages'
// charge_multicast calls); round costs are advanced by the orchestrator
// (one network round per tree hop). Dealing and sendSecretUp charge one
// Network::charge_multicast per sender.
//
// Crypto goes through a per-flow SchemeCache (crypto/scheme_cache.h): the
// (k1, t1) leaf scheme and the (d_up, t_up) uplink scheme are built once
// and deal via their precomputed Vandermonde matrices, and sendDown's
// recombinations reuse a RobustDecoder per (point set, threshold) — its
// information-set precompute survives across dealing groups, levels and
// exposure batches instead of being rebuilt per call. Words that no
// information set decodes go to Gao's O(m^2) extended-Euclid decoder.
// Corruption draws are centralised in fill_garbage (core/array_state.h).
//
// Parallelism (the round engine, common/pool.h). The flows are fanned
// across the pool under a hard draw-order contract that keeps every run
// byte-identical at any worker count; workers share the cache's schemes
// and decoders by const reference, resolved by the serial driver pass:
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
//    (common/arena.h): each exposure takes one block, and decoded groups
//    and transmitted values are slots in it, so handing a decoded record
//    to every child of a node — the dominant replication in the flow —
//    copies a slot index, not words. The arena resets at the top of each
//    batch chunk.
//
// sendOpen fans out per receiver the same way: the node's open plan
// lists each leaf's surviving senders once and each receiver's linked
// leaves, one salt is drawn from rng_ at the call's serial position, and
// each receiver's tally runs on the pool drawing its lying-sender garbage
// from Rng(salt).fork(pos). Every receiver linked to a leaf sees the same
// honest values from it, so a pooled pass per open first settles each
// (leaf, word) whose honest plurality no garbage can overturn; a receiver
// takes a settled winner and skips its garbage stream past that leaf's
// liars, so every later draw keeps its position. Moving any rng_ draw or
// salt changes fixed-seed outcomes and re-pins the parity fingerprints
// and golden reports (procedure in docs/ARCHITECTURE.md). Ledger charges
// are order-independent totals and move freely between phases.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/arena.h"
#include "common/plurality.h"
#include "common/pool.h"
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
};

class ShareFlow {
 public:
  ShareFlow(const ProtocolParams& params, const TournamentTree& tree,
            Network& net, Rng rng);

  /// Also drops every cached exposure plan (the masks change with it).
  void set_fault_style(FaultStyle s);

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
  /// same views — but the batch shares one arena epoch per chunk, and
  /// recombinations across all jobs fan out in one
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
  /// Leaf tallies (receiver, linked leaf, word) that took a settled
  /// winner instead of re-tallying so far (report extras).
  std::uint64_t open_fast_leaf_tallies() const { return open_fast_tallies_; }
  /// sendDown recombinations (tree groups and leaf exchanges) whose
  /// robust decode failed so far (report extras).
  std::uint64_t decode_failures() const { return decode_failures_; }
  /// Words of sendDown recombinations that missed the zero-error check
  /// so far, and those of them that no information set decoded, which
  /// paid a Gao decode (report extras).
  std::uint64_t damaged_words() const { return damaged_words_; }
  std::uint64_t gao_words() const { return gao_words_; }
  /// Exposure plans built so far, and exposures served by a cached plan
  /// (report extras).
  std::uint64_t plans_built() const { return plans_built_; }
  std::uint64_t plan_reuses() const { return plan_reuses_; }

 private:
  /// One surviving sendOpen sender of a leaf: its member position and
  /// whether it lies.
  struct OpenSender {
    std::uint16_t member_idx = 0;
    std::uint8_t lies = 0;
  };
  /// The sendOpen plan of one node. Every receiver linked to a leaf gets
  /// the same senders from it (all its non-silent members), so senders
  /// are stored once per leaf of the node: leaf rel (index minus the
  /// node's first leaf) owns senders[leaf_ends[rel-1], leaf_ends[rel]) in
  /// member order, liars[rel] of them lying. Receiver pos is linked to
  /// links[pos_link_ends[pos-1], pos_link_ends[pos]) (leaf rels, in
  /// ell-link order: the tally order).
  struct OpenPlan {
    std::vector<OpenSender> senders;
    std::vector<std::uint32_t> leaf_ends;  ///< per leaf, into senders
    std::vector<std::uint32_t> liars;      ///< per leaf: its L
    std::vector<std::uint32_t> links;
    std::vector<std::uint32_t> pos_link_ends;  ///< per receiver, into links
    std::vector<ChargeRow> charges;  ///< one message per sender per receiver

    std::uint32_t senders_begin(std::size_t rel) const {
      return rel == 0 ? 0 : leaf_ends[rel - 1];
    }
  };

  /// The word-independent structure of one sendDown (see the header
  /// comment). Slots index one arena block of slots x nwords words;
  /// slots [0, layout.size()) hold the array's records in order.
  struct ExposurePlan {
    /// One recombination: the shares of one parent chain in one node.
    struct Group {
      std::uint64_t stream = 0;  ///< (node << 32) | group: failure fork
      std::uint32_t share_begin = 0, share_end = 0;  ///< into shares
      std::uint32_t out = 0;  ///< slot of the decoded words
      const RobustDecoder* dec = nullptr;
    };
    /// Ends of one tree level's runs (a level starts where the previous
    /// one ended).
    struct Level {
      std::uint32_t group_end = 0;  ///< into groups
      std::uint32_t lie_end = 0;    ///< into lies
    };
    /// One leaf exchange: the leaf's surviving 1-shares.
    struct Leaf {
      std::uint32_t leaf_idx = 0;
      std::uint32_t share_begin = 0, share_end = 0;  ///< into shares
      std::uint32_t secret = 0;            ///< slot of the recovered words
      const RobustDecoder* dec = nullptr;  ///< nullptr: too few survived
    };
    /// Lookup key: the array's (chain, holder_pos) sequence.
    std::vector<std::pair<Chain, std::uint32_t>> layout;
    std::uint32_t slots = 0;
    std::vector<Level> levels;  ///< [li] is tree level `level - li`
    std::vector<Group> groups;  ///< level-major, frontier then chain order
    std::vector<Leaf> leaves;   ///< frontier order
    std::vector<std::uint32_t> shares;  ///< share slots, per group/leaf
    /// Lying holders' slots in draw order: levels, then the leaves.
    std::vector<std::uint32_t> lies;
    std::vector<ChargeRow> charges;  ///< tree hops and leaf exchanges
  };

  /// Cached plans of one node at the cached level.
  struct NodePlans {
    std::vector<std::unique_ptr<ExposurePlan>> exposures;
    std::optional<OpenPlan> open;
  };

  /// The cached plans of `node_idx` at `level`; drops every plan first
  /// when a validity key moved (see the header comment).
  NodePlans& plans_at(std::size_t level, std::size_t node_idx);
  /// Drop every plan, then trim the decoders they pointed to.
  void drop_plans();
  /// Array a's exposure plan: a cache hit, or a fresh build.
  const ExposurePlan& exposure_plan(const ArrayState& a);
  /// The sendOpen plan of node (level, node_idx), built on first use.
  const OpenPlan& open_plan(std::size_t level, std::size_t node_idx);
  /// The structural passes (draw-free, charge-free) behind the two.
  ExposurePlan build_exposure_plan(const ArrayState& a);
  OpenPlan build_open_plan(std::size_t level, std::size_t node_idx);

  /// sendOpen's per-receiver pluralities over the pool, lying senders
  /// drawing from Rng(salt).fork(pos). Draw-free on rng_ and charge-free
  /// (the caller charges plan.charges); writes are receiver-indexed. A
  /// first pooled pass settles the (leaf, word) tallies no garbage can
  /// sway (see open_tally in share_flow.cpp); receivers take those
  /// winners without re-tallying.
  void open_tally(const TreeNode& node, const OpenPlan& plan,
                  const LeafViews& views, std::uint64_t salt,
                  MemberViews& out);

  /// The one sendDown implementation behind send_down (open = false) and
  /// expose_batch (open = true): instantiate every job of a chunk from
  /// its plan, then the per-level decode and apply passes.
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

  const ProtocolParams& params_;
  const TournamentTree& tree_;
  Network& net_;
  Rng rng_;
  FaultStyle style_ = FaultStyle::lying;
  SchemeCache cache_;  ///< amortized dealing matrices and robust decoders
  WordArena arena_;    ///< word storage for one exposure batch chunk

  // Per-worker scratch (common/pool.h contract: reinitialized by every
  // item that uses it; the decode.*_words counts and fast_tallies are
  // partials summed after each fan-out).
  struct WorkerScratch {
    RobustDecoder::Scratch decode;
    std::vector<FpSpan> spans;
    std::vector<VectorShare> dealt;
    std::vector<Fp> slice;
    PluralityCounter leaf_tally;
    PluralityCounter node_tally;
    std::uint64_t fast_tallies = 0;
  };
  PerWorker<WorkerScratch> scratch_;
  /// open_tally's settled leaf winners, [leaf rel * nwords + w]
  /// (kUnsettled where the receivers tally themselves).
  std::vector<std::uint64_t> settled_;

  // Exposure plan cache (see the header comment): plans of one tree
  // level, valid while the two keys match.
  std::size_t plan_level_ = SIZE_MAX;
  std::size_t plan_corrupt_count_ = 0;
  std::uint64_t plan_generation_ = 0;  ///< bumped by every drop_plans()
  std::vector<NodePlans> plans_;  ///< by node index at plan_level_

  // Instrumentation for report extras (not part of any fingerprint).
  std::uint64_t open_receivers_ = 0;
  std::uint64_t open_tallies_ = 0;
  std::uint64_t open_fast_tallies_ = 0;
  std::uint64_t decode_failures_ = 0;
  std::uint64_t damaged_words_ = 0;
  std::uint64_t gao_words_ = 0;
  std::uint64_t plans_built_ = 0;
  std::uint64_t plan_reuses_ = 0;
};

}  // namespace ba
