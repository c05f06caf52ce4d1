// Fixed-size thread pool used by the sweep runners, the SOC layer, the
// flow server and ATPG. Deliberately minimal: a single priority queue
// (stable FIFO within one priority level), futures for results and
// exception propagation. Plain submit() enqueues at priority 0, so a pool
// fed only through submit() behaves exactly like the original FIFO pool;
// submit_prioritized() lets the flow server run urgent tenants ahead of
// queued batch work. With one worker the pool degrades to deterministic
// serial execution, which the parallel-vs-serial equivalence tests rely on.
//
// Nested work: fork() queues one claimable child task and fork_join() a
// loop of them, so a task fans out onto the pool it runs on (a SOC sweep
// cell forking its cores, a server SOC job, an ATPG run grading faults and
// speculating PODEM targets) without deadlock and without a private pool;
// see the join rule at fork().
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

  /// Handle to one forked task (see fork()). A handle destroyed before
  /// join() waits for its task first, so no task outlives the state it
  /// references.
  template <typename R>
  class Fork {
   public:
    Fork(Fork&&) noexcept = default;
    ~Fork() { wait(); }

    /// Returns once the task has finished, running it inline under the
    /// join rule. A no-op once joined.
    void wait() {
      if (!result_.valid()) return;
      if (current() == pool_ && try_claim(&child_->claimed)) {
        run_timed([this] { child_->run(); }, forked_);
      }
      result_.wait();
    }

    /// wait(), then the task's result (or its exception, rethrown).
    R join() {
      wait();
      return result_.get();
    }

   private:
    friend class ThreadPool;
    struct Child {
      std::atomic<bool> claimed{false};  ///< whoever flips it runs `run`
      std::packaged_task<R()> run;
    };

    Fork(ThreadPool* pool, std::shared_ptr<Child> child)
        : pool_(pool),
          child_(std::move(child)),
          result_(child_->run.get_future()),
          forked_(std::chrono::steady_clock::now()) {}

    ThreadPool* pool_;
    std::shared_ptr<Child> child_;
    std::future<R> result_;  ///< invalid once joined (or moved from)
    std::chrono::steady_clock::time_point forked_;
  };

  /// Queue `fn` as a claimable child of the calling task and return its
  /// handle, the single primitive for nested work (fork_join() loops it).
  ///
  /// Join rule: when the joining thread is a worker of this pool and no
  /// worker has claimed the child yet, the joiner claims it and runs it
  /// inline; otherwise it blocks until the child has finished, as
  /// future::get() would. A task only ever waits on its own children, so
  /// nested fan-out on one pool is deadlock-free, and a one-worker pool
  /// runs it serially in join order. The child queues at the forking
  /// task's priority (0 when forked from outside the pool) plus
  /// `priority_offset`, and records its spans into the forker's TraceSink.
  template <typename F>
  auto fork(F&& fn, int priority_offset = 0) -> Fork<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto child = std::make_shared<typename Fork<R>::Child>();
    child->run = std::packaged_task<R()>(std::forward<F>(fn));
    const bool nested = current() == this;
    {
      std::lock_guard<std::mutex> lock(mu_);
      // A draining pool still takes its own workers' children: the forker
      // runs whatever nobody else claims, so none can be stranded.
      if (stopping_ && !nested) throw std::runtime_error("ThreadPool: fork() after shutdown");
      push_locked([child] { child->run(); },
                  (nested ? running_priority() : 0) + priority_offset, &child->claimed,
                  current_trace_sink());
    }
    cv_.notify_one();
    return Fork<R>(this, std::move(child));
  }

  /// Run fn(0) .. fn(n-1) as n forks, joined in index order, and return
  /// their results in index order. Returns (or throws) only once every fork
  /// has finished; if any threw, the lowest index's exception is rethrown.
  template <typename F>
  auto fork_join(std::size_t n, F&& fn) -> std::vector<std::invoke_result_t<F&, std::size_t>> {
    using R = std::invoke_result_t<F&, std::size_t>;
    std::vector<Fork<R>> children;
    children.reserve(n);
    for (std::size_t i = 0; i < n; ++i) children.push_back(fork([&fn, i] { return fn(i); }));
    for (Fork<R>& child : children) child.wait();
    std::vector<R> out;
    out.reserve(n);
    for (Fork<R>& child : children) out.push_back(child.join());
    return out;
  }

  /// The pool whose worker the calling thread is; null on any other thread.
  static ThreadPool* current();

 private:
  struct Task {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    int priority = 0;
    std::uint64_t seq = 0;
    /// Forked children only: whoever flips `claim` first runs the task,
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
  static bool try_claim(std::atomic<bool>* claim);
  /// Runs `fn`, recording the rt.threadpool.* metrics.
  static void run_timed(const std::function<void()>& fn,
                        std::chrono::steady_clock::time_point enqueued);
  /// Priority of the task the calling worker is running.
  static int running_priority();
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::priority_queue<Task> queue_;
  std::vector<std::thread> workers_;
  std::uint64_t next_seq_ = 0;
  bool stopping_ = false;
};

}  // namespace tpi
