#include "util/thread_pool.hpp"

#include <optional>

#include "util/metrics.hpp"

namespace tpi {
namespace {

using Clock = std::chrono::steady_clock;

/// The pool whose worker this thread is (nullptr elsewhere), and the
/// priority of the task it is running.
thread_local ThreadPool* t_pool = nullptr;
thread_local int t_priority = 0;

}  // namespace

unsigned ThreadPool::default_concurrency() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1u;
}

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = default_concurrency();
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

ThreadPool* ThreadPool::current() { return t_pool; }

int ThreadPool::running_priority() { return t_priority; }

void ThreadPool::push_locked(std::function<void()> fn, int priority,
                             std::atomic<bool>* claim, TraceSink* sink) {
  queue_.push(Task{std::move(fn), Clock::now(), priority, next_seq_++, claim, sink});
}

bool ThreadPool::try_claim(std::atomic<bool>* claim) {
  return claim == nullptr || !claim->exchange(true, std::memory_order_acq_rel);
}

void ThreadPool::run_timed(const std::function<void()>& fn, Clock::time_point enqueued) {
  const Clock::time_point start = Clock::now();
  fn();  // packaged_task captures exceptions into the future
  const Clock::time_point done = Clock::now();
  // Scheduling is nondeterministic by nature, so these are rt.* metrics
  // in the process-global registry (never in per-flow snapshots).
  MetricsRegistry& g = MetricsRegistry::global();
  g.observe("rt.threadpool.queue_wait_us",
            std::chrono::duration<double, std::micro>(start - enqueued).count());
  g.observe("rt.threadpool.run_ms",
            std::chrono::duration<double, std::milli>(done - start).count());
  g.add("rt.threadpool.tasks");
}

void ThreadPool::worker_loop() {
  t_pool = this;
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and fully drained
      // priority_queue::top() is const; moving from it is safe because the
      // element is popped before anything else can observe it.
      task = std::move(const_cast<Task&>(queue_.top()));
      queue_.pop();
    }
    if (!try_claim(task.claim)) continue;  // its forker ran it inline
    t_priority = task.priority;
    std::optional<ScopedTraceSink> scope;
    if (task.sink != nullptr) scope.emplace(*task.sink);
    run_timed(task.fn, task.enqueued);
  }
}

}  // namespace tpi
