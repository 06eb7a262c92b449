// Deterministic worker pool — the parallel round engine's substrate.
//
// The simulator's hot loops (per-receiver delivery buckets, per-node
// elections, per-member AEBA tallies) are data-parallel over an index
// range, and the protocol layer needs their parallel execution to be
// *byte-identical* to serial execution: parallelism must be testable, not
// trusted. The pool therefore imposes a determinism contract on every
// body it runs, instead of offering a free-form task queue:
//
//  * A body may write only to state indexed by its item (slot i of an
//    output vector, bits of item i's record). Never to shared accumulators
//    — reductions are expressed as per-item (or per-chunk) partials that
//    the caller combines in index order after the loop.
//  * Per-worker scratch (passed to the body as a worker id) must be
//    (re)initialized by each item that uses it; which worker runs which
//    item is scheduling noise and must not be observable.
//  * Randomness is drawn from per-item Rng streams forked deterministically
//    from the task seed (Rng::fork(item_tag)), never from a shared
//    generator whose draw order would depend on scheduling.
//
// Under that contract the pool may schedule chunks dynamically (workers
// claim the next chunk from an atomic cursor) and the result is still
// invariant under the worker count: BA_THREADS=1 (or set_threads(1)) runs
// the same bodies inline on the caller and produces identical bytes —
// tests/parallel_parity_test.cpp holds the protocols to exactly that.
//
// Per-worker scratch lives in a PerWorker<T> (below): one slot per
// worker, each on its own cache line, so two workers never write to one
// line through their scratch.
//
// Nesting: a body that itself calls Pool::for_each runs the nested loop
// inline on its own worker (no thread explosion, no deadlock); the nested
// body sees the enclosing worker's id, so per-worker scratch stays
// exclusive.
//
// Worker count: BA_THREADS if set (>= 1), else the hardware concurrency;
// set_threads() overrides at runtime (used by the parity tests to sweep
// 1/2/8 workers in-process). Threads are started lazily on the first
// parallel call and parked on a condition variable between calls.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/check.h"

namespace ba {

namespace pool_detail {

/// Runs chunk_fn(begin, end, worker) over [0, count) on the shared engine,
/// caller participating as one worker. Blocks until every chunk completed;
/// rethrows the first body exception.
void parallel_run(std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& chunk_fn);

/// Worker id of the calling thread: 0 for any thread outside the pool
/// (including the driver between parallel calls), the worker's id inside a
/// pool body.
std::size_t current_worker();

/// True while the calling thread is executing a pool body (used to run
/// nested parallel loops inline).
bool inside_pool();

}  // namespace pool_detail

class Pool {
 public:
  /// Ceiling on the worker count from any source (set_threads,
  /// BA_THREADS, the hardware default): a count from outside the program
  /// must not start threads until the system refuses.
  static constexpr std::size_t kMaxThreads = 256;

  /// Configured worker count (>= 1). Determines how many per-worker
  /// scratch slots callers must provision.
  static std::size_t num_threads();

  /// Override the worker count; 0 restores the BA_THREADS / hardware
  /// default. A count above kMaxThreads throws (BA_REQUIRE) and changes
  /// nothing. Must not be called while a parallel loop is running.
  static void set_threads(std::size_t count);

  /// True when parallel calls may actually fan out (> 1 worker).
  static bool parallel_enabled() { return num_threads() > 1; }

  /// body(i, worker) for every i in [0, count), worker in
  /// [0, num_threads()). `min_grain` is the smallest chunk worth shipping
  /// to a worker; loops at or below it run inline on the caller.
  template <typename Body>
  static void for_each(std::size_t count, Body&& body,
                       std::size_t min_grain = 1) {
    run_chunked(
        count,
        [&body](std::size_t begin, std::size_t end, std::size_t worker) {
          for (std::size_t i = begin; i < end; ++i) body(i, worker);
        },
        min_grain);
  }

  /// body(begin, end, worker) over a partition of [0, count). Chunk
  /// boundaries are scheduling detail — under the determinism contract
  /// above they must not be observable in the results.
  template <typename Body>
  static void run_chunked(std::size_t count, Body&& body,
                          std::size_t min_grain = 1) {
    if (count == 0) return;
    if (count <= min_grain || !parallel_enabled() ||
        pool_detail::inside_pool()) {
      body(std::size_t{0}, count, pool_detail::current_worker());
      return;
    }
    const std::size_t workers = num_threads();
    // ~4 chunks per worker balances dynamic scheduling against per-chunk
    // dispatch cost; grain never drops below the caller's floor.
    std::size_t grain = count / (workers * 4);
    if (grain < min_grain) grain = min_grain;
    pool_detail::parallel_run(count, grain, body);
  }
};

/// Per-worker scratch: one T per pool worker, indexed by the worker id a
/// Pool body receives. Each slot is alignas(64), so it starts on a cache
/// line of its own and no other slot's bytes reach into its lines.
/// Scratch is written on every item (a tally's push_back moves its
/// vector's end pointer, a decoder bumps its counters), and two workers
/// whose slots shared a line would invalidate each other's copy of it on
/// every such write (false sharing) — a plain std::vector<T> of 24- or
/// 48-byte T packs two or three workers into one line.
///
/// fit() resizes to Pool::num_threads(), so the slot count follows
/// Pool::set_threads; call it before each fan-out that indexes the slots,
/// from the thread that owns the object (the driver, or the one pool item
/// an object belongs to — a nested loop inside that item runs inline on
/// the item's worker). Slots that survive a fit() keep their contents.
template <typename T>
class PerWorker {
 public:
  static constexpr std::size_t kCacheLine = 64;

  PerWorker() { fit(); }

  PerWorker& fit() {
    const std::size_t workers = Pool::num_threads();
    if (slots_.size() != workers) slots_.resize(workers);
    return *this;
  }

  std::size_t size() const { return slots_.size(); }
  T& operator[](std::size_t worker) { return slots_[worker].value; }

  /// f(slot) over every slot in worker order (serial: setup and
  /// index-ordered reductions of per-worker partials).
  template <typename F>
  void each(F&& f) {
    for (Slot& s : slots_) f(s.value);
  }

 private:
  struct alignas(kCacheLine) Slot {
    T value{};
  };
  std::vector<Slot> slots_;
};

}  // namespace ba
