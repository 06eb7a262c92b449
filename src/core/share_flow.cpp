#include "core/share_flow.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <unordered_map>

#include "common/plurality.h"
#include "common/pool.h"

namespace ba {

namespace {

/// Holder member position of a share with the given chain (length `len`)
/// inside its level-`len` node: walk the positional uplink samplers.
std::uint32_t chain_pos(const TournamentTree& tree, Chain c,
                        std::size_t len) {
  std::uint32_t pos = chain_elem(c, 0);
  for (std::size_t i = 1; i < len; ++i)
    pos = tree.uplinks(i).at(pos)[chain_elem(c, i) - 1];
  return pos;
}

}  // namespace

ShareFlow::ShareFlow(const ProtocolParams& params, const TournamentTree& tree,
                     Network& net, Rng rng)
    : params_(params), tree_(tree), net_(net), rng_(rng) {}

void ShareFlow::ensure_worker_scratch() {
  const std::size_t w = Pool::num_threads();
  if (decode_scratch_.size() < w) {
    decode_scratch_.resize(w);
    span_scratch_.resize(w);
    deal_out_scratch_.resize(w);
    slice_scratch_.resize(w);
    leaf_tally_scratch_.resize(w);
    node_tally_scratch_.resize(w);
  }
}

void ShareFlow::build_open_plan(std::size_t level, std::size_t node_idx,
                                std::size_t views_leaf_begin, OpenPlan& plan) {
  const TreeNode& node = tree_.node(level, node_idx);
  std::size_t links = 0;
  for (const auto& leaves : node.ell) links += leaves.size();
  plan.senders.reserve(plan.senders.size() + links * params_.tree.k1);
  plan.ids.reserve(plan.ids.size() + links * params_.tree.k1);
  plan.leaf_ends.reserve(plan.leaf_ends.size() + links);
  plan.pos_leaf_ends.reserve(plan.pos_leaf_ends.size() + node.members.size());
  for (std::size_t pos = 0; pos < node.members.size(); ++pos) {
    for (std::uint32_t leaf_abs : node.ell[pos]) {
      const TreeNode& leaf = tree_.node(1, leaf_abs);
      const auto rel =
          static_cast<std::uint32_t>(leaf_abs - views_leaf_begin);
      for (std::size_t i = 0; i < leaf.members.size(); ++i) {
        const ProcId sender = leaf.members[i];
        if (silent(sender)) continue;
        plan.senders.push_back({rel, static_cast<std::uint16_t>(i),
                                static_cast<std::uint8_t>(lying(sender))});
        plan.ids.push_back(sender);
      }
      plan.leaf_ends.push_back(
          static_cast<std::uint32_t>(plan.senders.size()));
    }
    plan.pos_leaf_ends.push_back(
        static_cast<std::uint32_t>(plan.leaf_ends.size()));
  }
}

void ShareFlow::open_tally(const TreeNode& node, const OpenPlan& plan,
                           const LeafViews& views, std::uint64_t salt,
                           MemberViews& out) {
  ensure_worker_scratch();
  const std::size_t nwords = views.nwords();
  // Ledger charges depend only on identities, not on words: one serial
  // walk of the binned senders in receiver order.
  std::size_t lb = 0, sb = 0;
  for (std::size_t pos = 0; pos < node.members.size(); ++pos) {
    const ProcId receiver = node.members[pos];
    const std::uint32_t le = plan.pos_leaf_ends[pos];
    const std::size_t s_end = lb == le ? sb : plan.leaf_ends[le - 1];
    for (std::size_t si = sb; si < s_end; ++si)
      net_.charge_batch(plan.ids[si], receiver, nwords * kWordBits);
    sb = s_end;
    lb = le;
  }
  const Rng salted(salt);
  open_receivers_ += node.members.size();
  open_tallies_ += 1;
  Pool::for_each(node.members.size(), [&](std::size_t pos,
                                          std::size_t worker) {
    // Per-receiver garbage stream: a function of (salt, pos) alone, so
    // lying-sender draws are identical at any worker count and never
    // touch rng_. Draw order within the stream is (word, leaf, sender).
    Rng garbage_stream = salted.fork(pos);
    PluralityCounter& leaf_tally = leaf_tally_scratch_[worker];
    PluralityCounter& node_tally = node_tally_scratch_[worker];
    const std::uint32_t lb = pos == 0 ? 0 : plan.pos_leaf_ends[pos - 1];
    const std::uint32_t le = plan.pos_leaf_ends[pos];
    const std::size_t s_begin = lb == 0 ? 0 : plan.leaf_ends[lb - 1];
    for (std::size_t w = 0; w < nwords; ++w) {
      node_tally.clear();
      std::size_t si = s_begin;
      for (std::size_t l = lb; l < le; ++l) {
        leaf_tally.clear();
        for (; si < plan.leaf_ends[l]; ++si) {
          const OpenSender& s = plan.senders[si];
          leaf_tally.add(s.lies
                             ? garbage_stream.next()
                             : views.at(s.leaf_rel, s.member_idx, w).value());
        }
        node_tally.add(leaf_tally.winner());
      }
      out.set(pos, w, Fp(node_tally.winner()));
    }
  });
}

std::vector<ShareRec> ShareFlow::deal_to_leaf(ProcId owner,
                                              std::size_t leaf_idx,
                                              const std::vector<Fp>& words) {
  DealJob job;
  job.owner = owner;
  job.leaf_idx = leaf_idx;
  job.words = &words;
  return std::move(deal_to_leaf_batch({job})[0]);
}

std::vector<std::vector<ShareRec>> ShareFlow::deal_to_leaf_batch(
    const std::vector<DealJob>& jobs) {
  ensure_worker_scratch();
  const std::size_t nj = jobs.size();
  std::vector<std::vector<ShareRec>> out(nj);
  std::vector<const CachedScheme*> scheme_of(nj, nullptr);
  std::vector<std::vector<Fp>> coeffs_of(nj);
  // Serial driver pass: draws (dealing coefficients / lying garbage) and
  // charges in job order — byte-identical to dealing job by job.
  for (std::size_t ji = 0; ji < nj; ++ji) {
    const DealJob& job = jobs[ji];
    const TreeNode& leaf = tree_.node(1, job.leaf_idx);
    const std::size_t k1 = leaf.members.size();
    const std::size_t t1 = params_.privacy_threshold(k1);
    if (silent(job.owner)) continue;  // crashed dealer: nobody gets anything
    std::vector<ShareRec>& recs = out[ji];
    recs.resize(k1);
    const bool lies = lying(job.owner);
    if (!lies) {
      const CachedScheme& scheme = cache_.prewarm(k1, t1);
      scheme_of[ji] = &scheme;
      scheme.draw_coeffs(job.words->size(), rng_, coeffs_of[ji]);
    }
    for (std::size_t pos = 0; pos < k1; ++pos) {
      recs[pos].chain = chain_root(static_cast<std::uint16_t>(pos));
      recs[pos].holder_pos = static_cast<std::uint32_t>(pos);
      if (lies) fill_garbage(recs[pos].ys, job.words->size(), rng_);
      net_.charge_batch(job.owner, leaf.members[pos],
                        job.words->size() * kWordBits);
    }
  }
  // Parallel pass: honest dealings are draw-free Vandermonde products
  // writing job-indexed records.
  Pool::for_each(nj, [&](std::size_t ji, std::size_t worker) {
    if (scheme_of[ji] == nullptr) return;
    std::vector<VectorShare>& dealt = deal_out_scratch_[worker];
    scheme_of[ji]->deal_from_coeffs(*jobs[ji].words, coeffs_of[ji], dealt);
    std::vector<ShareRec>& recs = out[ji];
    for (std::size_t pos = 0; pos < recs.size(); ++pos)
      recs[pos].ys = std::move(dealt[pos].ys);
  });
  return out;
}

void ShareFlow::send_secret_up(
    ArrayState& a, std::size_t new_offset,
    const std::function<bool(std::size_t)>& holder_forwards) {
  BA_REQUIRE(a.level + 1 <= tree_.num_levels(), "array already at the root");
  BA_REQUIRE(new_offset >= a.word_offset, "cannot grow the secret suffix");
  const TreeNode& c_node = tree_.node(a.level, a.node_idx);
  BA_REQUIRE(c_node.parent != SIZE_MAX, "node has no parent");
  const TreeNode& p_node = tree_.node(a.level + 1, c_node.parent);
  const Sampler& up = tree_.uplinks(a.level);
  const std::size_t d = up.degree();
  const std::size_t t = params_.privacy_threshold(d);
  const std::size_t drop = new_offset - a.word_offset;
  ensure_worker_scratch();

  const CachedScheme& scheme = cache_.prewarm(d, t);
  struct UpItem {
    std::uint32_t rec_idx;
    std::uint32_t base;  ///< index of its first output record in `next`
  };
  std::vector<UpItem> honest;
  std::vector<std::vector<Fp>> coeffs_of;  // parallel to `honest`
  std::vector<ShareRec> next;
  next.reserve(a.recs.size() * d);

  // Serial driver pass: inclusion, chains, draws and charges in record
  // order. Lying holders' garbage is terminal work and lands directly in
  // `next`; honest re-dealings pre-draw coefficients for the parallel
  // pass.
  for (std::size_t ri = 0; ri < a.recs.size(); ++ri) {
    const ShareRec& rec = a.recs[ri];
    const ProcId holder = c_node.members[rec.holder_pos];
    const bool corrupt = net_.is_corrupt(holder);
    if (silent(holder)) continue;
    if (!corrupt && !holder_forwards(rec.holder_pos)) continue;
    BA_REQUIRE(drop <= rec.ys.size(), "offset beyond stored words");
    const std::size_t slice_words = rec.ys.size() - drop;
    const bool lies = lying(holder);
    if (!lies) {
      honest.push_back({static_cast<std::uint32_t>(ri),
                        static_cast<std::uint32_t>(next.size())});
      coeffs_of.emplace_back();
      scheme.draw_coeffs(slice_words, rng_, coeffs_of.back());
    }
    const auto& targets = up.at(rec.holder_pos);
    for (std::size_t i = 0; i < d; ++i) {
      ShareRec nr;
      nr.chain = chain_extend(rec.chain, a.level,
                              static_cast<std::uint16_t>(i + 1));
      nr.holder_pos = targets[i];
      if (lies) fill_garbage(nr.ys, slice_words, rng_);
      next.push_back(std::move(nr));
    }
    for (std::size_t i = 0; i < d; ++i)
      net_.charge_batch(holder, p_node.members[targets[i]],
                        slice_words * kWordBits);
  }

  // Parallel pass: slice + Vandermonde product per honest record,
  // record-indexed writes.
  Pool::for_each(honest.size(), [&](std::size_t hi, std::size_t worker) {
    const UpItem& item = honest[hi];
    const ShareRec& rec = a.recs[item.rec_idx];
    std::vector<Fp>& slice = slice_scratch_[worker];
    slice.assign(rec.ys.begin() + drop, rec.ys.end());
    std::vector<VectorShare>& dealt = deal_out_scratch_[worker];
    scheme.deal_from_coeffs(slice, coeffs_of[hi], dealt);
    for (std::size_t i = 0; i < d; ++i)
      next[item.base + i].ys = std::move(dealt[i].ys);
  });

  a.recs = std::move(next);
  a.level += 1;
  a.node_idx = c_node.parent;
  a.word_offset = new_offset;
}

LeafViews ShareFlow::send_down(const ArrayState& a, std::size_t w0,
                               std::size_t w1) {
  return std::move(expose({{&a, w0, w1}}, /*open=*/false).front().views);
}

std::vector<ShareFlow::Exposure> ShareFlow::expose_batch(
    const std::vector<ExposeJob>& jobs) {
  return expose(jobs, /*open=*/true);
}

std::vector<ShareFlow::Exposure> ShareFlow::expose(
    const std::vector<ExposeJob>& jobs, bool open) {
  std::vector<Exposure> out;
  out.reserve(jobs.size());
  if (jobs.empty()) return out;
  const std::size_t level = jobs.front().a->level;
  for (const ExposeJob& job : jobs) {
    BA_REQUIRE(job.a != nullptr && job.a->level == level,
               "expose_batch jobs must share one tree level");
    BA_REQUIRE(job.a->level >= 2, "sendDown starts at level 2 or above");
    BA_REQUIRE(job.w0 >= job.a->word_offset && job.w1 > job.w0,
               "bad word range");
  }
  ensure_worker_scratch();

  // ---- Plan structures. One recombination group: the shares of one
  // parent chain inside one node, decoded once into `out`. Decoding a
  // group yields the same value for every sibling receiver, so each node
  // decodes once into an arena-backed batch and the frontier hands every
  // child a batch id — replication is a span copy, never a word copy.
  struct Group {
    Chain pc = 0;
    std::uint32_t holder_pos = 0;
    std::uint32_t share_begin = 0, share_end = 0;  // into NodeWork::shares
    const RobustDecoder* dec = nullptr;
    Fp* out = nullptr;
  };
  struct NodeWork {
    std::size_t ci = 0;
    std::uint32_t batch = 0;             // incoming records, Job::batches
    std::vector<FpSpan> sent;            // per rec: what the holder sends
    std::vector<std::uint8_t> dropped;   // per rec: silent holder
    std::vector<Fp*> lie_bufs;           // lying holders, rec order
    std::vector<std::uint32_t> shares;   // rec indices, grouped contiguously
    std::vector<Group> groups;           // map-iteration order (see below)
  };
  struct LevelWork {
    std::vector<NodeWork> nodes;
    std::uint64_t salt = 0;  ///< failed groups' garbage-stream salt
  };
  struct LeafWork {
    std::size_t leaf_idx = 0;
    std::vector<FpSpan> shares;   // per surviving sender, record order
    std::vector<ProcId> senders;  // surviving senders, same order
    std::vector<Fp*> lie_bufs;    // record order
    const RobustDecoder* dec = nullptr;  // nullptr: not enough survived
    Fp* secret = nullptr;
  };
  struct Job {
    std::size_t nwords = 0;
    const TreeNode* top = nullptr;
    std::vector<std::vector<DownRec>> batches;
    std::vector<LevelWork> levels;  ///< [li] is tree level `level - li`
    std::vector<LeafWork> leaves;
    std::uint64_t leaf_salt = 0;    ///< failed leaves' garbage-stream salt
    OpenPlan open;                  ///< sendOpen structure (open only)
    std::uint64_t open_salt = 0;    ///< sendOpen garbage-stream salt
  };

  // ---- Structural pass for one job (serial, draw-free, charge-free):
  // frontier walk, groups, decoder pre-warms (phase 1 of the cache's
  // two-phase protocol), buffer allocation, the open sender lists. The
  // decoded batches point at group buffers the decode passes fill later.
  const auto build_job = [&](const ExposeJob& ej, Job& job,
                             std::vector<LeafViews>& views_of) {
    const ArrayState& a = *ej.a;
    const std::size_t nwords = ej.w1 - ej.w0;
    const std::size_t s0 = ej.w0 - a.word_offset;
    job.nwords = nwords;
    job.top = &tree_.node(level, a.node_idx);
    const std::size_t k1 = tree_.node(1, job.top->leaf_begin).members.size();
    const std::size_t t1 = params_.privacy_threshold(k1);
    views_of.emplace_back(job.top->leaf_begin,
                          job.top->leaf_end - job.top->leaf_begin, k1, nwords);

    std::vector<std::pair<std::size_t, std::uint32_t>> frontier;
    {
      std::vector<DownRec> start;
      start.reserve(a.recs.size());
      for (const ShareRec& rec : a.recs) {
        BA_REQUIRE(s0 + nwords <= rec.ys.size(), "range beyond stored words");
        DownRec dr;
        dr.chain = rec.chain;
        dr.holder_pos = rec.holder_pos;
        Fp* buf = arena_.alloc(nwords);
        std::copy_n(rec.ys.begin() + static_cast<std::ptrdiff_t>(s0), nwords,
                    buf);
        dr.ys = FpSpan{buf, nwords};
        start.push_back(dr);
      }
      job.batches.push_back(std::move(start));
      frontier.emplace_back(a.node_idx, 0);
    }

    std::vector<Fp> xs;  // per-recombination points for the decoder lookup
    for (std::size_t m = level; m >= 2; --m) {
      const std::size_t d_deal = tree_.uplinks(m - 1).degree();
      const std::size_t t = params_.privacy_threshold(d_deal);
      LevelWork& lvl = job.levels.emplace_back();
      lvl.nodes.resize(frontier.size());
      std::vector<std::pair<std::size_t, std::uint32_t>> next;
      for (std::size_t ni = 0; ni < frontier.size(); ++ni) {
        NodeWork& nw = lvl.nodes[ni];
        nw.ci = frontier[ni].first;
        nw.batch = frontier[ni].second;
        const std::vector<DownRec>& recs = job.batches[nw.batch];
        const TreeNode& c_node = tree_.node(m, nw.ci);
        nw.sent.resize(recs.size());
        nw.dropped.assign(recs.size(), 0);
        for (std::size_t ri = 0; ri < recs.size(); ++ri) {
          const ProcId sender = c_node.members[recs[ri].holder_pos];
          if (silent(sender)) {
            nw.dropped[ri] = 1;
          } else if (lying(sender)) {
            Fp* buf = arena_.alloc(nwords);  // filled by the draw pass
            nw.lie_bufs.push_back(buf);
            nw.sent[ri] = FpSpan{buf, nwords};
          } else {
            nw.sent[ri] = recs[ri].ys;
          }
        }
        // Group by parent chain. The map's iteration order fixes the
        // decoded-record order and with it the next level's lie-draw
        // order; built with the identical key sequence, it iterates
        // identically every run.
        std::unordered_map<Chain, std::vector<std::uint32_t>> group_map;
        for (std::size_t ri = 0; ri < recs.size(); ++ri) {
          if (nw.dropped[ri]) continue;
          group_map[chain_parent(recs[ri].chain, m)].push_back(
              static_cast<std::uint32_t>(ri));
        }
        std::vector<DownRec> decoded;
        decoded.reserve(group_map.size());
        for (auto& [pc, members] : group_map) {
          if (members.size() < t + 1) continue;  // not enough survived
          Group g;
          g.pc = pc;
          g.holder_pos = chain_pos(tree_, pc, m - 1);
          g.share_begin = static_cast<std::uint32_t>(nw.shares.size());
          xs.clear();
          for (std::uint32_t ri : members) {
            nw.shares.push_back(ri);
            xs.push_back(Fp(chain_elem(recs[ri].chain, m - 1)));
          }
          g.share_end = static_cast<std::uint32_t>(nw.shares.size());
          g.dec = &cache_.prewarm_points(xs, t);
          g.out = arena_.alloc(nwords);
          nw.groups.push_back(g);
          decoded.push_back(DownRec{g.pc, g.holder_pos, FpSpan{g.out, nwords}});
        }
        const auto decoded_batch =
            static_cast<std::uint32_t>(job.batches.size());
        job.batches.push_back(std::move(decoded));
        for (std::size_t child : c_node.children)
          next.emplace_back(child, decoded_batch);
      }
      frontier = std::move(next);
    }

    // Leaf exchange: members of each leaf node swap their reconstructed
    // 1-shares and recover the exposed words, one recombination per leaf.
    job.leaves.resize(frontier.size());
    for (std::size_t li = 0; li < frontier.size(); ++li) {
      LeafWork& lw = job.leaves[li];
      lw.leaf_idx = frontier[li].first;
      const std::vector<DownRec>& recs = job.batches[frontier[li].second];
      const TreeNode& leaf = tree_.node(1, lw.leaf_idx);
      xs.clear();
      for (const DownRec& rec : recs) {
        const ProcId sender = leaf.members[rec.holder_pos];
        if (silent(sender)) continue;
        if (lying(sender)) {
          Fp* buf = arena_.alloc(nwords);  // filled by the draw pass
          lw.lie_bufs.push_back(buf);
          lw.shares.push_back(FpSpan{buf, nwords});
        } else {
          lw.shares.push_back(rec.ys);
        }
        xs.push_back(Fp(chain_elem(rec.chain, 0) + 1));
        lw.senders.push_back(sender);
      }
      if (lw.shares.size() >= t1 + 1) {
        lw.dec = &cache_.prewarm_points(xs, t1);
        lw.secret = arena_.alloc(nwords);
      }
    }

    if (open) build_open_plan(level, a.node_idx, job.top->leaf_begin, job.open);
  };

  // ---- Draw pass for one job: every rng_ draw the exposure takes, in
  // its fixed order — per level (descending) the lying holders'
  // transmissions in frontier/record order and then that level's
  // failure salt; the lying 1-shares in leaf/record order and then the
  // leaf-exchange failure salt; then sendOpen's salt. Decode outcomes
  // never feed back into rng_, so this order is known before decoding.
  const auto draw_job = [&](Job& job) {
    for (LevelWork& lvl : job.levels) {
      for (const NodeWork& nw : lvl.nodes)
        for (Fp* buf : nw.lie_bufs) fill_garbage_span(rng_, buf, job.nwords);
      lvl.salt = rng_.next();
    }
    for (const LeafWork& lw : job.leaves)
      for (Fp* buf : lw.lie_bufs) fill_garbage_span(rng_, buf, job.nwords);
    job.leaf_salt = rng_.next();
    if (open) job.open_salt = rng_.next();
  };

  // ---- Apply pass for one decoded job: the deferred ledger charges
  // (order within a round is immaterial — the ledger digests
  // per-processor totals and no round advances inside a call) and the
  // pooled sendOpen tally over the decoded leaf views.
  const auto apply_job = [&](const Job& job, LeafViews& views) {
    const std::size_t nwords = job.nwords;
    for (std::size_t li = 0; li < job.levels.size(); ++li) {
      const std::size_t m = level - li;
      for (const NodeWork& nw : job.levels[li].nodes) {
        const std::vector<DownRec>& recs = job.batches[nw.batch];
        const TreeNode& c_node = tree_.node(m, nw.ci);
        // One message per share per child.
        for (std::size_t child : c_node.children) {
          const TreeNode& d_node = tree_.node(m - 1, child);
          for (std::size_t ri = 0; ri < recs.size(); ++ri) {
            if (nw.dropped[ri]) continue;
            const ProcId sender = c_node.members[recs[ri].holder_pos];
            const std::uint32_t rpos =
                chain_pos(tree_, chain_parent(recs[ri].chain, m), m - 1);
            net_.charge_batch(sender, d_node.members[rpos],
                              nwords * kWordBits);
          }
        }
      }
    }
    for (const LeafWork& lw : job.leaves) {
      const TreeNode& leaf = tree_.node(1, lw.leaf_idx);
      for (const ProcId sender : lw.senders)
        for (std::size_t pos = 0; pos < leaf.members.size(); ++pos)
          net_.charge_batch(sender, leaf.members[pos], nwords * kWordBits);
    }
    if (!open) {
      out.push_back(Exposure{std::move(views), MemberViews(0, nwords)});
      return;
    }
    MemberViews mv(job.top->members.size(), nwords);
    open_tally(*job.top, job.open, views, job.open_salt, mv);
    out.push_back(Exposure{std::move(views), std::move(mv)});
  };

  // ---- One chunk: build + draw every job (serial, job-major), then
  // decode each tree level across all jobs in one pool dispatch, then the
  // leaf exchanges in one more, then apply job by job. A recombination
  // that fails fills its output inside its decode item from its own
  // garbage stream — Rng(level salt).fork((node << 32) | group) for a
  // group, Rng(leaf salt).fork(leaf) for a leaf exchange — so a failure
  // is a function of (salt, position) alone and no draw waits on a
  // decode result.
  std::atomic<std::uint64_t> failures{0};
  const auto run_chunk = [&](std::size_t jb, std::size_t je) {
    const std::size_t count = je - jb;
    arena_.reset();  // one chunk == one arena epoch
    std::vector<Job> plans(count);
    std::vector<LeafViews> views_of;
    views_of.reserve(count);
    SchemeCache::RobustPin pin(cache_);
    const std::uint64_t epoch = cache_.robust_epoch();
    for (std::size_t ji = 0; ji < count; ++ji) {
      build_job(jobs[jb + ji], plans[ji], views_of);
      draw_job(plans[ji]);
    }
    BA_ENSURE(cache_.robust_epoch() == epoch,
              "decoder map reset mid-chunk despite the pin");

    std::vector<std::array<std::uint32_t, 3>> todo;
    for (std::size_t li = 0; li + 1 < level; ++li) {
      todo.clear();
      for (std::size_t ji = 0; ji < count; ++ji)
        for (std::size_t ni = 0; ni < plans[ji].levels[li].nodes.size(); ++ni)
          for (std::size_t gi = 0;
               gi < plans[ji].levels[li].nodes[ni].groups.size(); ++gi)
            todo.push_back({static_cast<std::uint32_t>(ji),
                            static_cast<std::uint32_t>(ni),
                            static_cast<std::uint32_t>(gi)});
      Pool::for_each(todo.size(), [&](std::size_t wi, std::size_t worker) {
        const Job& job = plans[todo[wi][0]];
        const LevelWork& lvl = job.levels[li];
        const NodeWork& nw = lvl.nodes[todo[wi][1]];
        const Group& g = nw.groups[todo[wi][2]];
        std::vector<FpSpan>& spans = span_scratch_[worker];
        spans.clear();
        for (std::uint32_t si = g.share_begin; si < g.share_end; ++si)
          spans.push_back(nw.sent[nw.shares[si]]);
        if (g.dec->reconstruct_into(spans.data(), spans.size(), job.nwords,
                                    g.out, decode_scratch_[worker]))
          return;
        ++failures;
        Rng stream = Rng(lvl.salt).fork(
            (static_cast<std::uint64_t>(nw.ci) << 32) | todo[wi][2]);
        fill_garbage_span(stream, g.out, job.nwords);
      });
    }

    todo.clear();
    for (std::size_t ji = 0; ji < count; ++ji)
      for (std::size_t li = 0; li < plans[ji].leaves.size(); ++li)
        todo.push_back({static_cast<std::uint32_t>(ji),
                        static_cast<std::uint32_t>(li), 0});
    Pool::for_each(todo.size(), [&](std::size_t wi, std::size_t worker) {
      const Job& job = plans[todo[wi][0]];
      const LeafWork& lw = job.leaves[todo[wi][1]];
      LeafViews& views = views_of[todo[wi][0]];
      const std::size_t k = tree_.node(1, lw.leaf_idx).members.size();
      const std::size_t rel = lw.leaf_idx - job.top->leaf_begin;
      if (lw.dec != nullptr) {
        if (lw.dec->reconstruct_into(lw.shares.data(), lw.shares.size(),
                                     job.nwords, lw.secret,
                                     decode_scratch_[worker])) {
          for (std::size_t pos = 0; pos < k; ++pos)
            for (std::size_t w = 0; w < job.nwords; ++w)
              views.set(rel, pos, w, lw.secret[w]);
          return;
        }
        ++failures;
      }
      // Failed, or too few surviving shares to try: every member's view
      // is garbage, drawn in (pos, word) order.
      Rng stream = Rng(job.leaf_salt).fork(lw.leaf_idx);
      for (std::size_t pos = 0; pos < k; ++pos)
        for (std::size_t w = 0; w < job.nwords; ++w)
          views.set(rel, pos, w, Fp(stream.next()));
    });

    for (std::size_t ji = 0; ji < count; ++ji)
      apply_job(plans[ji], views_of[ji]);
  };

  // Chunk so one call never holds more than a bounded window of leaf
  // work (views + arena words), whatever the level or job count.
  constexpr std::size_t kChunkLeafCap = 4096;
  std::size_t jb = 0;
  while (jb < jobs.size()) {
    std::size_t je = jb;
    std::size_t acc = 0;
    do {
      const TreeNode& top = tree_.node(level, jobs[je].a->node_idx);
      acc += top.leaf_end - top.leaf_begin;
      ++je;
    } while (je < jobs.size() && acc < kChunkLeafCap);
    run_chunk(jb, je);
    jb = je;
  }
  decode_failures_ += failures;
  return out;
}

MemberViews ShareFlow::send_open(std::size_t level, std::size_t node_idx,
                                 const LeafViews& views) {
  const TreeNode& node = tree_.node(level, node_idx);
  MemberViews out(node.members.size(), views.nwords());
  // Structural pass (serial, draw-free): the surviving (leaf, member)
  // sender set and each sender's lying flag depend only on identities,
  // not on words — computed once per receiver (the seed re-walked every
  // leaf member per word and recounted pluralities with an O(k^2) nested
  // loop).
  OpenPlan& plan = open_plan_scratch_;
  plan.clear();
  build_open_plan(level, node_idx, views.leaf_begin(), plan);
  // One salt draw at the call's serial rng_ position seeds every
  // receiver's forked garbage stream; the per-receiver tallies then run
  // draw-free on the pool.
  const std::uint64_t salt = rng_.next();
  open_tally(node, plan, views, salt, out);
  return out;
}

}  // namespace ba
