#include "common/pool.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parse.h"

namespace ba {
namespace pool_detail {
namespace {

thread_local std::size_t t_worker_id = 0;
thread_local bool t_inside_pool = false;

/// One parallel loop in flight. Heap-held via shared_ptr so a worker that
/// wakes after the caller has already returned only ever touches a live
/// (if exhausted) job.
struct Job {
  std::function<void(std::size_t, std::size_t, std::size_t)> chunk_fn;
  std::size_t count = 0;
  std::size_t grain = 1;
  std::size_t total_chunks = 0;
  std::atomic<std::size_t> cursor{0};
  std::atomic<std::size_t> completed{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
};

class Engine {
 public:
  static Engine& get() {
    static Engine* engine = new Engine();  // leaked: workers may outlive exit
    return *engine;
  }

  std::size_t threads() const {
    // Read lock-free: hot paths (advance_round, every tally) size their
    // per-worker scratch off this, and a mutex here would serialize the
    // very workers the pool exists to fan out.
    return configured_.load(std::memory_order_acquire);
  }

  void set_threads(std::size_t count) {
    std::unique_lock<std::mutex> lk(mu_);
    const std::size_t want = count == 0 ? default_threads() : count;
    if (want == configured_.load(std::memory_order_relaxed)) return;
    stop_workers(lk);
    configured_.store(want, std::memory_order_release);
  }

  void run(std::shared_ptr<Job> job) {
    std::unique_lock<std::mutex> lk(mu_);
    BA_REQUIRE(job_ == nullptr, "Pool supports one parallel loop at a time");
    ensure_workers(lk);
    job_ = job;
    ++generation_;
    lk.unlock();
    cv_.notify_all();

    work_on(*job, /*worker=*/0);

    lk.lock();
    done_cv_.wait(lk, [&] {
      return job->completed.load(std::memory_order_acquire) ==
             job->total_chunks;
    });
    job_ = nullptr;
    lk.unlock();
    if (job->failed.load(std::memory_order_acquire)) {
      std::lock_guard<std::mutex> elk(job->error_mu);
      std::rethrow_exception(job->error);
    }
  }

  static void work_on(Job& job, std::size_t worker) {
    const std::size_t prev_worker = t_worker_id;
    const bool prev_inside = t_inside_pool;
    t_worker_id = worker;
    t_inside_pool = true;
    for (;;) {
      if (job.failed.load(std::memory_order_relaxed)) {
        // Drain remaining chunks without running them so `completed`
        // still reaches total_chunks and the caller wakes.
        const std::size_t begin =
            job.cursor.fetch_add(job.grain, std::memory_order_relaxed);
        if (begin >= job.count) break;
        job.completed.fetch_add(1, std::memory_order_acq_rel);
        continue;
      }
      const std::size_t begin =
          job.cursor.fetch_add(job.grain, std::memory_order_relaxed);
      if (begin >= job.count) break;
      const std::size_t end =
          begin + job.grain < job.count ? begin + job.grain : job.count;
      try {
        job.chunk_fn(begin, end, worker);
      } catch (...) {
        std::lock_guard<std::mutex> elk(job.error_mu);
        if (!job.failed.exchange(true, std::memory_order_acq_rel))
          job.error = std::current_exception();
      }
      job.completed.fetch_add(1, std::memory_order_acq_rel);
    }
    t_worker_id = prev_worker;
    t_inside_pool = prev_inside;
  }

 private:
  Engine() : configured_(default_threads()) {}

  /// BA_THREADS when set to a count >= 1 (a value that is not a count
  /// up to Pool::kMaxThreads throws), else the hardware's, capped.
  static std::size_t default_threads() {
    const char* env = std::getenv("BA_THREADS");
    if (env != nullptr && *env != '\0') {
      const std::uint64_t v =
          parse_unsigned(env, "BA_THREADS", Pool::kMaxThreads);
      if (v >= 1) return static_cast<std::size_t>(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : std::min<std::size_t>(hw, Pool::kMaxThreads);
  }

  void ensure_workers(std::unique_lock<std::mutex>&) {
    const std::size_t want = configured_.load(std::memory_order_relaxed);
    if (stop_) return;
    while (workers_.size() + 1 < want) {
      const std::size_t id = workers_.size() + 1;
      workers_.emplace_back([this, id] { worker_main(id); });
    }
  }

  void stop_workers(std::unique_lock<std::mutex>& lk) {
    if (workers_.empty()) return;
    stop_ = true;
    lk.unlock();
    cv_.notify_all();
    for (auto& w : workers_) w.join();
    lk.lock();
    workers_.clear();
    stop_ = false;
  }

  void worker_main(std::size_t id) {
    std::uint64_t seen = 0;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      if (!job) continue;
      work_on(*job, id);
      if (job->completed.load(std::memory_order_acquire) ==
          job->total_chunks) {
        // Fence through mu_ before notifying: the caller checks the
        // (atomic, not lock-protected) completion count under mu_, so
        // without this a notify could land between its check and its
        // wait and be lost.
        { std::lock_guard<std::mutex> lk(mu_); }
        done_cv_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;
  std::uint64_t generation_ = 0;
  std::atomic<std::size_t> configured_{1};
  bool stop_ = false;
};

}  // namespace

void parallel_run(std::size_t count, std::size_t grain,
                  const std::function<void(std::size_t, std::size_t,
                                           std::size_t)>& chunk_fn) {
  auto job = std::make_shared<Job>();
  job->chunk_fn = chunk_fn;
  job->count = count;
  job->grain = grain == 0 ? 1 : grain;
  job->total_chunks = (count + job->grain - 1) / job->grain;
  Engine::get().run(std::move(job));
}

std::size_t current_worker() { return t_worker_id; }
bool inside_pool() { return t_inside_pool; }

}  // namespace pool_detail

std::size_t Pool::num_threads() { return pool_detail::Engine::get().threads(); }

void Pool::set_threads(std::size_t count) {
  BA_REQUIRE(count <= kMaxThreads, "worker count above Pool::kMaxThreads");
  pool_detail::Engine::get().set_threads(count);
}

}  // namespace ba
