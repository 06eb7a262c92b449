#include "core/share_flow.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <map>

#include "common/plurality.h"
#include "common/pool.h"

namespace ba {

namespace {

/// ShareFlow::settled_ entry of a (leaf, word) the receivers tally
/// themselves; no field value (< Fp::kP) collides with it.
constexpr std::uint64_t kUnsettled = UINT64_MAX;

/// Holder member position of a share with the given chain (length `len`)
/// inside its level-`len` node: walk the positional uplink samplers.
std::uint32_t chain_pos(const TournamentTree& tree, Chain c,
                        std::size_t len) {
  std::uint32_t pos = chain_elem(c, 0);
  for (std::size_t i = 1; i < len; ++i)
    pos = tree.uplinks(i).at(pos)[chain_elem(c, i) - 1];
  return pos;
}

/// Per-processor message counts of one plan, folded into charge rows in
/// first-touch order.
class ChargeTally {
 public:
  explicit ChargeTally(std::size_t n) : row_of_(n, kNone) {}

  void add(ProcId from, ProcId to) {
    ++row(from).sent;
    ++row(to).received;
  }
  std::vector<ChargeRow> take() { return std::move(rows_); }

 private:
  static constexpr std::uint32_t kNone = UINT32_MAX;
  ChargeRow& row(ProcId p) {
    BA_REQUIRE(p < row_of_.size(), "processor id out of range");
    if (row_of_[p] == kNone) {
      row_of_[p] = static_cast<std::uint32_t>(rows_.size());
      rows_.push_back({p, 0, 0});
    }
    return rows_[row_of_[p]];
  }

  std::vector<std::uint32_t> row_of_;
  std::vector<ChargeRow> rows_;
};

}  // namespace

ShareFlow::ShareFlow(const ProtocolParams& params, const TournamentTree& tree,
                     Network& net, Rng rng)
    : params_(params), tree_(tree), net_(net), rng_(rng) {}

void ShareFlow::set_fault_style(FaultStyle s) {
  style_ = s;
  plan_level_ = SIZE_MAX;
  drop_plans();
}

void ShareFlow::drop_plans() {
  plans_.clear();
  ++plan_generation_;
  // No plan is left to hold a decoder pointer.
  cache_.trim_decoders();
}

ShareFlow::NodePlans& ShareFlow::plans_at(std::size_t level,
                                          std::size_t node_idx) {
  if (plan_level_ != level || plan_corrupt_count_ != net_.corrupt_count()) {
    plan_level_ = level;
    plan_corrupt_count_ = net_.corrupt_count();
    drop_plans();
    plans_.resize(tree_.nodes_at(level));
  }
  return plans_[node_idx];
}

const ShareFlow::ExposurePlan& ShareFlow::exposure_plan(const ArrayState& a) {
  NodePlans& node = plans_at(a.level, a.node_idx);
  for (const auto& plan : node.exposures) {
    if (std::equal(plan->layout.begin(), plan->layout.end(), a.recs.begin(),
                   a.recs.end(), [](const auto& key, const ShareRec& rec) {
                     return key.first == rec.chain &&
                            key.second == rec.holder_pos;
                   })) {
      ++plan_reuses_;
      return *plan;
    }
  }
  node.exposures.push_back(
      std::make_unique<ExposurePlan>(build_exposure_plan(a)));
  ++plans_built_;
  return *node.exposures.back();
}

const ShareFlow::OpenPlan& ShareFlow::open_plan(std::size_t level,
                                                std::size_t node_idx) {
  NodePlans& node = plans_at(level, node_idx);
  if (!node.open) node.open = build_open_plan(level, node_idx);
  return *node.open;
}

ShareFlow::ExposurePlan ShareFlow::build_exposure_plan(const ArrayState& a) {
  const std::size_t level = a.level;
  ExposurePlan plan;
  ChargeTally charges(net_.size());
  // A record travelling down the plan: the slot its words are in.
  struct Rec {
    Chain chain = 0;
    std::uint32_t holder_pos = 0;
    std::uint32_t slot = 0;
  };
  // Decoding a group yields the same value for every sibling receiver,
  // so each node decodes once into a batch of records and the frontier
  // hands every child the batch id.
  std::vector<std::vector<Rec>> batches(1);
  for (const ShareRec& rec : a.recs) {
    plan.layout.emplace_back(rec.chain, rec.holder_pos);
    batches[0].push_back({rec.chain, rec.holder_pos, plan.slots++});
  }
  std::vector<std::pair<std::size_t, std::uint32_t>> frontier{{a.node_idx, 0}};

  constexpr std::uint32_t kDropped = UINT32_MAX;
  std::vector<std::uint32_t> sent;  // per record: the slot its holder sends
  std::vector<Fp> xs;  // per-recombination points for the decoder lookup
  for (std::size_t m = level; m >= 2; --m) {
    const std::size_t t =
        params_.privacy_threshold(tree_.uplinks(m - 1).degree());
    std::vector<std::pair<std::size_t, std::uint32_t>> next;
    for (const auto& [ci, batch] : frontier) {
      const std::vector<Rec>& recs = batches[batch];
      const TreeNode& c_node = tree_.node(m, ci);
      sent.assign(recs.size(), kDropped);
      for (std::size_t ri = 0; ri < recs.size(); ++ri) {
        const ProcId sender = c_node.members[recs[ri].holder_pos];
        if (silent(sender)) continue;
        sent[ri] = recs[ri].slot;
        if (lying(sender)) {
          sent[ri] = plan.slots++;
          plan.lies.push_back(sent[ri]);
        }
      }
      // Group by parent chain, in ascending chain order. That order fixes
      // the decoded-record order and with it the next level's lie-draw
      // order, so it must not depend on the standard library.
      std::map<Chain, std::vector<std::uint32_t>> group_map;
      for (std::size_t ri = 0; ri < recs.size(); ++ri)
        if (sent[ri] != kDropped)
          group_map[chain_parent(recs[ri].chain, m)].push_back(
              static_cast<std::uint32_t>(ri));
      std::vector<Rec> decoded;
      decoded.reserve(group_map.size());
      for (const auto& [pc, members] : group_map) {
        // One message per share per child, to the group's holder there.
        const std::uint32_t rpos = chain_pos(tree_, pc, m - 1);
        for (std::size_t child : c_node.children) {
          const ProcId receiver = tree_.node(m - 1, child).members[rpos];
          for (std::uint32_t ri : members)
            charges.add(c_node.members[recs[ri].holder_pos], receiver);
        }
        if (members.size() < t + 1) continue;  // not enough survived
        ExposurePlan::Group g;
        g.stream = (std::uint64_t{ci} << 32) | decoded.size();
        g.share_begin = static_cast<std::uint32_t>(plan.shares.size());
        xs.clear();
        for (std::uint32_t ri : members) {
          plan.shares.push_back(sent[ri]);
          xs.push_back(Fp(chain_elem(recs[ri].chain, m - 1)));
        }
        g.share_end = static_cast<std::uint32_t>(plan.shares.size());
        g.dec = &cache_.robust(xs, t);
        g.out = plan.slots++;
        decoded.push_back({pc, rpos, g.out});
        plan.groups.push_back(g);
      }
      const auto decoded_batch = static_cast<std::uint32_t>(batches.size());
      batches.push_back(std::move(decoded));
      for (std::size_t child : c_node.children)
        next.emplace_back(child, decoded_batch);
    }
    plan.levels.push_back({static_cast<std::uint32_t>(plan.groups.size()),
                           static_cast<std::uint32_t>(plan.lies.size())});
    frontier = std::move(next);
  }

  // Leaf exchange: members of each leaf node swap their reconstructed
  // 1-shares and recover the exposed words, one recombination per leaf.
  const TreeNode& top = tree_.node(level, a.node_idx);
  const std::size_t t1 = params_.privacy_threshold(
      tree_.node(1, top.leaf_begin).members.size());
  for (const auto& [leaf_idx, batch] : frontier) {
    const TreeNode& leaf = tree_.node(1, leaf_idx);
    ExposurePlan::Leaf lf;
    lf.leaf_idx = static_cast<std::uint32_t>(leaf_idx);
    lf.share_begin = static_cast<std::uint32_t>(plan.shares.size());
    xs.clear();
    for (const Rec& rec : batches[batch]) {
      const ProcId sender = leaf.members[rec.holder_pos];
      if (silent(sender)) continue;
      std::uint32_t slot = rec.slot;
      if (lying(sender)) {
        slot = plan.slots++;
        plan.lies.push_back(slot);
      }
      plan.shares.push_back(slot);
      xs.push_back(Fp(chain_elem(rec.chain, 0) + 1));
      for (const ProcId member : leaf.members) charges.add(sender, member);
    }
    lf.share_end = static_cast<std::uint32_t>(plan.shares.size());
    if (lf.share_end - lf.share_begin >= t1 + 1) {
      lf.dec = &cache_.robust(xs, t1);
      lf.secret = plan.slots++;
    }
    plan.leaves.push_back(lf);
  }
  plan.charges = charges.take();
  return plan;
}

ShareFlow::OpenPlan ShareFlow::build_open_plan(std::size_t level,
                                               std::size_t node_idx) {
  const TreeNode& node = tree_.node(level, node_idx);
  OpenPlan plan;
  ChargeTally charges(net_.size());
  const std::size_t leaves = node.leaf_end - node.leaf_begin;
  plan.senders.reserve(leaves * params_.tree.k1);
  plan.leaf_ends.reserve(leaves);
  plan.liars.reserve(leaves);
  for (std::size_t rel = 0; rel < leaves; ++rel) {
    const TreeNode& leaf = tree_.node(1, node.leaf_begin + rel);
    std::uint32_t liars = 0;
    for (std::size_t i = 0; i < leaf.members.size(); ++i) {
      const ProcId sender = leaf.members[i];
      if (silent(sender)) continue;
      const bool lies = lying(sender);
      plan.senders.push_back({static_cast<std::uint16_t>(i),
                              static_cast<std::uint8_t>(lies)});
      liars += lies ? 1 : 0;
    }
    plan.leaf_ends.push_back(static_cast<std::uint32_t>(plan.senders.size()));
    plan.liars.push_back(liars);
  }
  std::size_t links = 0;
  for (const auto& linked : node.ell) links += linked.size();
  plan.links.reserve(links);
  plan.pos_link_ends.reserve(node.members.size());
  for (std::size_t pos = 0; pos < node.members.size(); ++pos) {
    for (std::uint32_t leaf_abs : node.ell[pos]) {
      BA_REQUIRE(leaf_abs >= node.leaf_begin && leaf_abs < node.leaf_end,
                 "ell-link outside the node's subtree");
      const auto rel = static_cast<std::uint32_t>(leaf_abs - node.leaf_begin);
      plan.links.push_back(rel);
      const TreeNode& leaf = tree_.node(1, leaf_abs);
      for (std::uint32_t si = plan.senders_begin(rel);
           si < plan.leaf_ends[rel]; ++si)
        charges.add(leaf.members[plan.senders[si].member_idx],
                    node.members[pos]);
    }
    plan.pos_link_ends.push_back(static_cast<std::uint32_t>(plan.links.size()));
  }
  plan.charges = charges.take();
  return plan;
}

void ShareFlow::open_tally(const TreeNode& node, const OpenPlan& plan,
                           const LeafViews& views, std::uint64_t salt,
                           MemberViews& out) {
  scratch_.fit();
  const std::size_t nwords = views.nwords();
  const std::size_t rel0 = node.leaf_begin - views.leaf_begin();
  open_receivers_ += node.members.size();
  open_tallies_ += 1;

  // Pass 1, per (leaf, word). Every receiver linked to a leaf tallies the
  // same honest values plus its own draws for the leaf's L liars, and
  // garbage adds at most L to any one value. So when the honest plurality
  // (count c1) leads the runner-up (count c2) by c1 > c2 + L, it wins
  // every receiver's tally strictly, whatever the draws, and the
  // first-occurrence tie-break never applies. Anything else — a margin
  // of exactly L, an honest tie, a leaf without honest senders — stays
  // kUnsettled and takes the full tally below. A chunk of fewer than
  // ~256 leaf-words runs faster inline than dispatched.
  const std::size_t settle_grain =
      std::max<std::size_t>(1, 256 / std::max<std::size_t>(1, nwords));
  settled_.assign(plan.liars.size() * nwords, kUnsettled);
  Pool::for_each(
      plan.liars.size(),
      [&](std::size_t rel, std::size_t worker) {
        PluralityCounter& honest = scratch_[worker].leaf_tally;
        for (std::size_t w = 0; w < nwords; ++w) {
          honest.clear();
          for (std::uint32_t si = plan.senders_begin(rel);
               si < plan.leaf_ends[rel]; ++si) {
            const OpenSender& s = plan.senders[si];
            if (!s.lies)
              honest.add(views.at(rel0 + rel, s.member_idx, w).value());
          }
          const PluralityCounter::Leader top = honest.leader();
          if (top.count > top.runner_up + plan.liars[rel])
            settled_[rel * nwords + w] = top.value;
        }
      },
      /*min_grain=*/settle_grain);

  // Pass 2, per receiver: a plurality of its leaves' winners per word.
  const Rng salted(salt);
  Pool::for_each(node.members.size(), [&](std::size_t pos,
                                          std::size_t worker) {
    // Per-receiver garbage stream: a function of (salt, pos) alone, so
    // lying-sender draws are identical at any worker count and never
    // touch rng_. Draw order within the stream is (word, leaf, sender); a
    // settled leaf skips its L draws, so later draws keep their place.
    Rng garbage_stream = salted.fork(pos);
    WorkerScratch& sc = scratch_[worker];
    const std::uint32_t lb = pos == 0 ? 0 : plan.pos_link_ends[pos - 1];
    const std::uint32_t le = plan.pos_link_ends[pos];
    for (std::size_t w = 0; w < nwords; ++w) {
      sc.node_tally.clear();
      for (std::uint32_t l = lb; l < le; ++l) {
        const std::uint32_t rel = plan.links[l];
        const std::uint64_t settled = settled_[rel * nwords + w];
        if (settled != kUnsettled) {
          for (std::uint32_t i = 0; i < plan.liars[rel]; ++i)
            garbage_stream.next();
          sc.node_tally.add(settled);
          ++sc.fast_tallies;
          continue;
        }
        sc.leaf_tally.clear();
        for (std::uint32_t si = plan.senders_begin(rel);
             si < plan.leaf_ends[rel]; ++si) {
          const OpenSender& s = plan.senders[si];
          sc.leaf_tally.add(
              s.lies ? garbage_stream.next()
                     : views.at(rel0 + rel, s.member_idx, w).value());
        }
        sc.node_tally.add(sc.leaf_tally.winner());
      }
      out.set(pos, w, Fp(sc.node_tally.winner()));
    }
  });
  scratch_.each([this](WorkerScratch& sc) {
    open_fast_tallies_ += sc.fast_tallies;
    sc.fast_tallies = 0;
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
  scratch_.fit();
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
      const CachedScheme& scheme = cache_.scheme(k1, t1);
      scheme_of[ji] = &scheme;
      scheme.draw_coeffs(job.words->size(), rng_, coeffs_of[ji]);
    }
    for (std::size_t pos = 0; pos < k1; ++pos) {
      recs[pos].chain = chain_root(static_cast<std::uint16_t>(pos));
      recs[pos].holder_pos = static_cast<std::uint32_t>(pos);
      if (lies) fill_garbage(recs[pos].ys, job.words->size(), rng_);
    }
    net_.charge_multicast(job.owner, leaf.members,
                          job.words->size() * kWordBits);
  }
  // Parallel pass: honest dealings are draw-free Vandermonde products
  // writing job-indexed records.
  Pool::for_each(nj, [&](std::size_t ji, std::size_t worker) {
    if (scheme_of[ji] == nullptr) return;
    std::vector<VectorShare>& dealt = scratch_[worker].dealt;
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
  scratch_.fit();

  const CachedScheme& scheme = cache_.scheme(d, t);
  struct UpItem {
    std::uint32_t rec_idx;
    std::uint32_t base;  ///< index of its first output record in `next`
  };
  std::vector<UpItem> honest;
  std::vector<std::vector<Fp>> coeffs_of;  // parallel to `honest`
  std::vector<ShareRec> next;
  next.reserve(a.recs.size() * d);
  std::vector<ProcId> receivers(d);  // one holder's uplink targets

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
      receivers[i] = p_node.members[targets[i]];
    net_.charge_multicast(holder, receivers, slice_words * kWordBits);
  }

  // Parallel pass: slice + Vandermonde product per honest record,
  // record-indexed writes.
  Pool::for_each(honest.size(), [&](std::size_t hi, std::size_t worker) {
    const UpItem& item = honest[hi];
    const ShareRec& rec = a.recs[item.rec_idx];
    std::vector<Fp>& slice = scratch_[worker].slice;
    slice.assign(rec.ys.begin() + drop, rec.ys.end());
    std::vector<VectorShare>& dealt = scratch_[worker].dealt;
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
  scratch_.fit();

  // One exposure in flight: its plans, its arena block and its salts.
  struct Instance {
    const ExposurePlan* plan = nullptr;
    const OpenPlan* open = nullptr;  ///< sendOpen plan (open only)
    const TreeNode* top = nullptr;
    std::size_t nwords = 0;
    Fp* block = nullptr;
    std::vector<std::uint64_t> salts;  ///< per tree level, then the leaves'
    std::uint64_t open_salt = 0;

    Fp* slot(std::uint32_t s) const { return block + s * nwords; }
    FpSpan span(std::uint32_t s) const { return FpSpan{slot(s), nwords}; }
  };

  // ---- Instantiation of one job (serial): its plan, its block with the
  // array's records copied in, and every rng_ draw the exposure takes, in
  // its fixed order — per level (descending) the lying holders'
  // transmissions in frontier/record order and then that level's
  // failure salt; the lying 1-shares in leaf/record order and then the
  // leaf-exchange failure salt; then sendOpen's salt. Decode outcomes
  // never feed back into rng_, so this order is known before decoding.
  const auto instantiate = [&](const ExposeJob& ej, Instance& in,
                               std::vector<LeafViews>& views_of) {
    const ArrayState& a = *ej.a;
    const ExposurePlan& plan = exposure_plan(a);
    in.plan = &plan;
    in.top = &tree_.node(level, a.node_idx);
    in.nwords = ej.w1 - ej.w0;
    in.block = arena_.alloc(plan.slots * in.nwords);
    const std::size_t s0 = ej.w0 - a.word_offset;
    for (std::size_t ri = 0; ri < a.recs.size(); ++ri) {
      const std::vector<Fp>& ys = a.recs[ri].ys;
      BA_REQUIRE(s0 + in.nwords <= ys.size(), "range beyond stored words");
      std::copy_n(ys.begin() + static_cast<std::ptrdiff_t>(s0), in.nwords,
                  in.slot(static_cast<std::uint32_t>(ri)));
    }
    std::size_t lie = 0;
    for (const ExposurePlan::Level& lvl : plan.levels) {
      for (; lie < lvl.lie_end; ++lie)
        fill_garbage_span(rng_, in.slot(plan.lies[lie]), in.nwords);
      in.salts.push_back(rng_.next());
    }
    for (; lie < plan.lies.size(); ++lie)
      fill_garbage_span(rng_, in.slot(plan.lies[lie]), in.nwords);
    in.salts.push_back(rng_.next());
    if (open) {
      in.open = &open_plan(level, a.node_idx);
      in.open_salt = rng_.next();
    }
    views_of.emplace_back(in.top->leaf_begin,
                          in.top->leaf_end - in.top->leaf_begin,
                          tree_.node(1, in.top->leaf_begin).members.size(),
                          in.nwords);
  };

  // ---- Apply pass for one decoded job: the ledger charges from the
  // plans' tables (order within a round is immaterial — the ledger
  // digests per-processor totals and no round advances inside a call)
  // and the pooled sendOpen tally over the decoded leaf views.
  const auto apply = [&](const Instance& in, LeafViews& views) {
    const std::size_t content_bits = in.nwords * kWordBits;
    net_.charge_table(in.plan->charges, content_bits);
    if (!open) {
      out.push_back(Exposure{std::move(views), MemberViews(0, in.nwords)});
      return;
    }
    net_.charge_table(in.open->charges, content_bits);
    MemberViews mv(in.top->members.size(), in.nwords);
    open_tally(*in.top, *in.open, views, in.open_salt, mv);
    out.push_back(Exposure{std::move(views), std::move(mv)});
  };

  // ---- One chunk: instantiate every job (serial, job-major), then
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
    std::vector<Instance> ins(count);
    std::vector<LeafViews> views_of;
    views_of.reserve(count);
    // The first instantiation may drop stale plans; after it, the chunk
    // holds plan and decoder pointers, so no drop may happen until its
    // last decode.
    std::uint64_t generation = 0;
    for (std::size_t ji = 0; ji < count; ++ji) {
      instantiate(jobs[jb + ji], ins[ji], views_of);
      if (ji == 0) generation = plan_generation_;
    }

    std::vector<std::array<std::uint32_t, 2>> todo;
    for (std::size_t li = 0; li + 1 < level; ++li) {
      todo.clear();
      for (std::size_t ji = 0; ji < count; ++ji) {
        const ExposurePlan& plan = *ins[ji].plan;
        const std::uint32_t gb = li == 0 ? 0 : plan.levels[li - 1].group_end;
        for (std::uint32_t gi = gb; gi < plan.levels[li].group_end; ++gi)
          todo.push_back({static_cast<std::uint32_t>(ji), gi});
      }
      Pool::for_each(todo.size(), [&](std::size_t wi, std::size_t worker) {
        const Instance& in = ins[todo[wi][0]];
        const ExposurePlan::Group& g = in.plan->groups[todo[wi][1]];
        WorkerScratch& sc = scratch_[worker];
        sc.spans.clear();
        for (std::uint32_t si = g.share_begin; si < g.share_end; ++si)
          sc.spans.push_back(in.span(in.plan->shares[si]));
        if (g.dec->reconstruct_into(sc.spans.data(), sc.spans.size(),
                                    in.nwords, in.slot(g.out), sc.decode))
          return;
        ++failures;
        Rng stream = Rng(in.salts[li]).fork(g.stream);
        fill_garbage_span(stream, in.slot(g.out), in.nwords);
      });
    }

    todo.clear();
    for (std::size_t ji = 0; ji < count; ++ji)
      for (std::size_t li = 0; li < ins[ji].plan->leaves.size(); ++li)
        todo.push_back({static_cast<std::uint32_t>(ji),
                        static_cast<std::uint32_t>(li)});
    Pool::for_each(todo.size(), [&](std::size_t wi, std::size_t worker) {
      const Instance& in = ins[todo[wi][0]];
      const ExposurePlan::Leaf& lf = in.plan->leaves[todo[wi][1]];
      LeafViews& views = views_of[todo[wi][0]];
      const std::size_t k = tree_.node(1, lf.leaf_idx).members.size();
      const std::size_t rel = lf.leaf_idx - in.top->leaf_begin;
      if (lf.dec != nullptr) {
        WorkerScratch& sc = scratch_[worker];
        sc.spans.clear();
        for (std::uint32_t si = lf.share_begin; si < lf.share_end; ++si)
          sc.spans.push_back(in.span(in.plan->shares[si]));
        const Fp* secret = in.slot(lf.secret);
        if (lf.dec->reconstruct_into(sc.spans.data(), sc.spans.size(),
                                     in.nwords, in.slot(lf.secret),
                                     sc.decode)) {
          for (std::size_t pos = 0; pos < k; ++pos)
            for (std::size_t w = 0; w < in.nwords; ++w)
              views.set(rel, pos, w, secret[w]);
          return;
        }
        ++failures;
      }
      // Failed, or too few surviving shares to try: every member's view
      // is garbage, drawn in (pos, word) order.
      Rng stream = Rng(in.salts.back()).fork(lf.leaf_idx);
      for (std::size_t pos = 0; pos < k; ++pos)
        for (std::size_t w = 0; w < in.nwords; ++w)
          views.set(rel, pos, w, Fp(stream.next()));
    });
    BA_ENSURE(plan_generation_ == generation,
              "exposure plans dropped while a chunk held them");

    for (std::size_t ji = 0; ji < count; ++ji) apply(ins[ji], views_of[ji]);
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
  scratch_.each([this](WorkerScratch& sc) {
    damaged_words_ += sc.decode.damaged_words;
    gao_words_ += sc.decode.gao_words;
    sc.decode.damaged_words = 0;
    sc.decode.gao_words = 0;
  });
  return out;
}

MemberViews ShareFlow::send_open(std::size_t level, std::size_t node_idx,
                                 const LeafViews& views) {
  const TreeNode& node = tree_.node(level, node_idx);
  BA_REQUIRE(views.leaf_begin() <= node.leaf_begin &&
                 node.leaf_end <= views.leaf_begin() + views.leaf_count(),
             "views do not cover the node's leaves");
  MemberViews out(node.members.size(), views.nwords());
  const OpenPlan& plan = open_plan(level, node_idx);
  // One salt draw at the call's serial rng_ position seeds every
  // receiver's forked garbage stream; the per-receiver tallies then run
  // draw-free on the pool.
  const std::uint64_t salt = rng_.next();
  net_.charge_table(plan.charges, views.nwords() * kWordBits);
  open_tally(node, plan, views, salt, out);
  return out;
}

}  // namespace ba
