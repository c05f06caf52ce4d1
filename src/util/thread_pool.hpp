// Fixed-size thread pool used by the sweep runners, the SOC layer and the
// flow server. Deliberately minimal: a single priority queue (stable FIFO
// within one priority level), futures for results and exception
// propagation. Plain submit() enqueues at priority 0, so a pool fed only
// through submit() behaves exactly like the original FIFO pool;
// submit_prioritized() lets the flow server run urgent tenants ahead of
// queued batch work. With one worker the pool degrades to deterministic
// serial execution, which the parallel-vs-serial equivalence tests rely on.
//
// Nested work: fork_join() lets a task fan out onto the pool it runs on
// (a SOC sweep cell forking its cores, a server SOC job) without deadlock
// and without a private pool; see its join rule.
//
// Every task's queue wait (submit -> start) and run latency are recorded
// into MetricsRegistry::global() as the rt.threadpool.* histograms, so the
// pool is no longer a scheduling black box.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/trace.hpp"

namespace tpi {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = default_concurrency()).
  explicit ThreadPool(unsigned num_threads = 0);

  /// Drains every queued task, then joins the workers: all futures returned
  /// by submit() are ready once the destructor returns.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Queued tasks no thread has claimed yet. A fork_join child stops
  /// counting the moment its forker claims it to run inline, even though
  /// its queue entry lingers until a worker pops and discards it.
  std::size_t pending() const { return unclaimed_.load(std::memory_order_relaxed); }

  /// std::thread::hardware_concurrency() with a floor of 1 (the standard
  /// allows it to return 0 when unknowable).
  static unsigned default_concurrency();

  /// Enqueue `fn` at priority 0 and return a future for its result. An
  /// exception thrown by the task is captured and rethrown from
  /// future::get().
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    return submit_prioritized(0, std::forward<F>(fn));
  }

  /// Enqueue `fn` with an explicit priority: higher runs first; equal
  /// priorities run in submission order (stable via a sequence number).
  template <typename F>
  auto submit_prioritized(int priority, F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (stopping_) throw std::runtime_error("ThreadPool: submit() after shutdown");
      push_locked([task] { (*task)(); }, priority, nullptr, nullptr);
    }
    cv_.notify_one();
    return fut;
  }

  /// Run fn(0) .. fn(n-1) as n pool tasks and return their results in
  /// index order. Returns (or throws) only once every task has finished;
  /// if any threw, the exception of the lowest index is rethrown.
  ///
  /// Join rule: when the caller is a worker of this pool, it first runs,
  /// inline and in index order, each of these tasks that no worker has
  /// claimed yet, then blocks for the rest; any other thread just blocks,
  /// as future::get() would. A task only ever waits on its own children,
  /// so nested fan-out on one pool is deadlock-free, and a one-worker pool
  /// runs it serially in index order. The children queue at the forking
  /// task's priority (0 when called from outside the pool) and record
  /// their spans into the caller's TraceSink.
  template <typename F>
  auto fork_join(std::size_t n, F&& fn) -> std::vector<std::invoke_result_t<F&, std::size_t>> {
    using R = std::invoke_result_t<F&, std::size_t>;
    struct Child {
      std::atomic<bool> claimed{false};
      std::packaged_task<R()> run;
    };
    std::vector<std::shared_ptr<Child>> children;
    std::vector<std::future<R>> results;
    const bool nested = on_worker();
    const auto forked = std::chrono::steady_clock::now();
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A draining pool still takes its own workers' children: the forker
      // runs whatever nobody else claims, so none can be stranded.
      if (stopping_ && !nested) {
        throw std::runtime_error("ThreadPool: fork_join() after shutdown");
      }
      for (std::size_t i = 0; i < n; ++i) {
        auto child = std::make_shared<Child>();
        child->run = std::packaged_task<R()>([&fn, i] { return fn(i); });
        results.push_back(child->run.get_future());
        push_locked([child] { child->run(); }, nested ? running_priority() : 0,
                    &child->claimed, current_trace_sink());
        children.push_back(std::move(child));
      }
    }
    cv_.notify_all();
    for (const std::shared_ptr<Child>& child : children) {
      if (nested && try_claim(&child->claimed)) run_timed([&child] { child->run(); }, forked);
    }
    for (std::future<R>& r : results) r.wait();
    std::vector<R> out;
    out.reserve(n);
    for (std::future<R>& r : results) out.push_back(r.get());
    return out;
  }

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    int priority = 0;
    std::uint64_t seq = 0;
    /// fork_join children only: whoever flips `claim` first runs the task,
    /// under the forker's `sink` when a worker runs it.
    std::atomic<bool>* claim = nullptr;
    TraceSink* sink = nullptr;

    /// std::priority_queue is a max-heap on operator<: higher priority
    /// wins, lower sequence number (earlier submit) breaks ties.
    bool operator<(const Task& o) const {
      if (priority != o.priority) return priority < o.priority;
      return seq > o.seq;
    }
  };

  void push_locked(std::function<void()> fn, int priority, std::atomic<bool>* claim,
                   TraceSink* sink);
  /// True when the caller won `claim` (always, for plain tasks).
  bool try_claim(std::atomic<bool>* claim);
  /// Runs `fn`, recording the rt.threadpool.* metrics.
  static void run_timed(const std::function<void()>& fn,
                        std::chrono::steady_clock::time_point enqueued);
  /// Whether the calling thread is one of this pool's workers, and the
  /// priority of the task it is running.
  bool on_worker() const;
  static int running_priority();
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Task> queue_;
  std::vector<std::thread> workers_;
  std::uint64_t next_seq_ = 0;
  std::atomic<std::size_t> unclaimed_{0};
  bool stopping_ = false;
};

}  // namespace tpi
