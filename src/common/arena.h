// Bump-allocated pooled storage for the bulk share flows and the
// protocols' cold per-round state.
//
// sendDown moves the same decoded word vectors along every edge of a
// subtree: one decoded dealing group is handed to every child of its
// node, and one reconstructed leaf secret is replicated to every leaf
// member's view. The seed (and PR 2/3) materialised a fresh
// std::vector<Fp> per hop — at n = 4096 a single exposure batch performs
// tens of thousands of vector allocations whose contents are identical
// down each subtree. The arena replaces ownership with borrowing: one
// per-flow WordArena owns all word storage for the exposure batch, and
// the records that travel down the tree carry FpSpan views (pointer +
// length) that cost nothing to replicate.
//
// PodArena<T> generalises the same allocator to any trivially-copyable
// element type, so cold per-round protocol state (election coin buffers,
// per-level tallies) pools its storage too: the slabs persist across
// rounds and levels while the contents are carved fresh each epoch —
// after the first round at a given scale the steady state allocates
// nothing, and a workload spike releases its oversize slabs instead of
// pinning peak RSS for the rest of the run.
//
// Lifetime contract: spans are valid until the owning arena's next
// reset() or the end of the Epoch they were allocated under. ShareFlow
// resets its arena at the top of each send_down / expose_batch chunk, so
// spans never outlive the LeafViews computation they feed.
// Epochs generalise reset() to nested scopes: an Epoch captures the
// bump cursor at construction and rewinds to it at destruction (strictly
// LIFO — asserted), releasing any oversize slabs taken inside the scope
// while regular slabs stay pooled.
//
// Threading contract (mirrors common/pool.h): alloc()/reset()/Epoch
// mutate the arena and are driver-side only. Workers may read any span
// and may *write through* a T* the driver carved for their item
// (item-indexed writes, disjoint by construction) — the arena itself is
// never touched from a pool body.
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/check.h"
#include "common/field.h"

namespace ba {

/// Borrowed view of a word run inside a WordArena (or any stable Fp
/// storage). Trivially copyable; replication is pointer copy.
struct FpSpan {
  const Fp* ptr = nullptr;
  std::size_t len = 0;

  std::size_t size() const { return len; }
  bool empty() const { return len == 0; }
  const Fp& operator[](std::size_t i) const { return ptr[i]; }
  const Fp* begin() const { return ptr; }
  const Fp* end() const { return ptr + len; }
};

/// Bump allocator of T runs with epoch reset. Allocation is O(1) off a
/// slab cursor; reset() rewinds every slab without releasing memory;
/// nested Epoch scopes rewind to a mid-stream mark.
template <typename T>
class PodArena {
  static_assert(std::is_trivially_copyable_v<T>,
                "PodArena elements must be trivially copyable");

 public:
  /// `slab_elems` sizes the base slab; requests larger than a slab get a
  /// dedicated oversize slab of exactly their length.
  explicit PodArena(std::size_t slab_elems = std::size_t{1} << 14)
      : slab_elems_(slab_elems) {
    BA_REQUIRE(slab_elems_ > 0, "arena slabs must hold at least one element");
  }

  /// A fresh run of n elements (value-initialized to 0 on first slab use;
  /// reused runs keep stale contents — callers overwrite). n == 0 returns
  /// an empty, distinct-from-null span base.
  T* alloc(std::size_t n) {
    if (n == 0) return &empty_;
    if (n > slab_elems_) {
      // Oversize request: dedicated slab, consumed whole.
      oversize_.push_back(std::make_unique<T[]>(n));
      elems_allocated_ += n;
      return oversize_.back().get();
    }
    if (slab_idx_ == slabs_.size() || cursor_ + n > slab_elems_) {
      if (slab_idx_ < slabs_.size() && cursor_ + n > slab_elems_)
        ++slab_idx_;
      if (slab_idx_ == slabs_.size())
        slabs_.push_back(std::make_unique<T[]>(slab_elems_));
      cursor_ = 0;
    }
    T* out = slabs_[slab_idx_].get() + cursor_;
    cursor_ += n;
    elems_allocated_ += n;
    return out;
  }

  /// Rewind to empty, keeping regular slabs for reuse. Oversize slabs are
  /// released (they are workload spikes, not steady state). Invalidates
  /// every span handed out since the previous reset. Must not be called
  /// inside an open Epoch.
  void reset() {
    BA_REQUIRE(epoch_depth_ == 0, "reset() inside an open arena Epoch");
    slab_idx_ = 0;
    cursor_ = 0;
    elems_allocated_ = 0;
    oversize_.clear();
  }

  /// RAII scope over a run of allocations: captures the bump cursor on
  /// entry and rewinds to it on exit, releasing oversize slabs taken
  /// inside the scope. Epochs nest strictly LIFO; spans allocated inside
  /// an epoch are invalid after it closes.
  class Epoch {
   public:
    explicit Epoch(PodArena& arena)
        : arena_(arena),
          slab_idx_(arena.slab_idx_),
          cursor_(arena.cursor_),
          oversize_count_(arena.oversize_.size()),
          elems_(arena.elems_allocated_),
          depth_(++arena.epoch_depth_) {}
    ~Epoch() {
      BA_REQUIRE(arena_.epoch_depth_ == depth_,
                 "arena Epochs must close in LIFO order");
      --arena_.epoch_depth_;
      arena_.slab_idx_ = slab_idx_;
      arena_.cursor_ = cursor_;
      arena_.elems_allocated_ = elems_;
      arena_.oversize_.resize(oversize_count_);
    }
    Epoch(const Epoch&) = delete;
    Epoch& operator=(const Epoch&) = delete;

   private:
    PodArena& arena_;
    std::size_t slab_idx_, cursor_, oversize_count_, elems_;
    std::size_t depth_;
  };

  /// Elements handed out since the last reset (instrumentation).
  std::size_t words_allocated() const { return elems_allocated_; }
  /// Regular slabs retained (instrumentation; steady state is flat).
  std::size_t slab_count() const { return slabs_.size(); }

 private:
  std::size_t slab_elems_;
  std::vector<std::unique_ptr<T[]>> slabs_;
  std::vector<std::unique_ptr<T[]>> oversize_;
  std::size_t slab_idx_ = 0;   ///< slab currently being bumped
  std::size_t cursor_ = 0;     ///< next free element within that slab
  std::size_t elems_allocated_ = 0;
  std::size_t epoch_depth_ = 0;
  T empty_{};  ///< stable base for zero-length spans
};

/// Word storage for the share flows (the original arena client).
using WordArena = PodArena<Fp>;

}  // namespace ba
