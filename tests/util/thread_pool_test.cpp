#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "../common/watchdog.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

using test::run_with_watchdog;

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futs;
  for (int i = 0; i < 32; ++i) {
    futs.push_back(pool.submit([i] { return i * i; }));
  }
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futs[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPoolTest, DefaultsToHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_EQ(pool.size(), ThreadPool::default_concurrency());
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPoolTest, SingleWorkerPreservesSubmissionOrder) {
  // One worker = deterministic serial execution; the equivalence tests for
  // the sweep runner rely on this degenerate mode.
  ThreadPool pool(1);
  std::vector<int> order;
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 16; ++i) {
    futs.push_back(pool.submit([i, &order] { order.push_back(i); }));
  }
  for (auto& f : futs) f.get();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolTest, PropagatesExceptionsThroughFutures) {
  ThreadPool pool(2);
  auto ok = pool.submit([] { return 7; });
  auto bad = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_EQ(ok.get(), 7);
  EXPECT_THROW(bad.get(), std::runtime_error);
  // The pool survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&done] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ++done;
      });
    }
  }  // destructor must wait for all 64
  EXPECT_EQ(done.load(), 64);
}

TEST(ThreadPoolTest, HigherPriorityJumpsTheQueue) {
  // Occupy the single worker with a gated task, queue work at mixed
  // priorities, then release: the backlog must drain highest-first with
  // FIFO order inside each priority level.
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  auto blocker = pool.submit([open] { open.wait(); });

  std::vector<int> order;
  std::vector<std::future<void>> futs;
  for (const int tag : {0, 1, 2}) {
    futs.push_back(
        pool.submit_prioritized(0, [tag, &order] { order.push_back(tag); }));
  }
  futs.push_back(pool.submit_prioritized(5, [&order] { order.push_back(50); }));
  futs.push_back(pool.submit_prioritized(1, [&order] { order.push_back(10); }));
  futs.push_back(pool.submit_prioritized(5, [&order] { order.push_back(51); }));
  gate.set_value();

  blocker.get();
  for (auto& f : futs) f.get();
  EXPECT_EQ(order, (std::vector<int>{50, 51, 10, 0, 1, 2}));
}

TEST(ThreadPoolTest, ExecutesConcurrentlyWithMultipleWorkers) {
  // Two tasks that each wait for the other to start can only finish if the
  // pool really runs them on distinct threads.
  ThreadPool pool(2);
  std::atomic<int> started{0};
  auto wait_for_peer = [&started] {
    ++started;
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (started.load() < 2) {
      if (std::chrono::steady_clock::now() > deadline) return false;
      std::this_thread::yield();
    }
    return true;
  };
  auto a = pool.submit(wait_for_peer);
  auto b = pool.submit(wait_for_peer);
  EXPECT_TRUE(a.get());
  EXPECT_TRUE(b.get());
}

// The join rule: a one-worker pool whose only worker runs a task that fans
// out onto the same pool and joins. The worker must run its children
// inline (in index order); blocking on them instead would deadlock.
TEST(ThreadPoolTest, NestedForkJoinOnOneWorkerRunsChildrenInline) {
  run_with_watchdog([] {
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    const std::vector<int> squares =
        pool.submit([&pool, &order] {
              return pool.fork_join(8, [&order](std::size_t i) {
                order.push_back(i);
                return static_cast<int>(i * i);
              });
            })
            .get();
    ASSERT_EQ(squares.size(), 8u);
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(order[i], i);
      EXPECT_EQ(squares[i], static_cast<int>(i * i));
    }
  });
}

// Three levels of fan-out on two workers, entered from a non-pool thread:
// every forker waits only on its own children, so the grid completes.
TEST(ThreadPoolTest, ThreeLevelForkJoinOnTwoWorkersCompletes) {
  run_with_watchdog([] {
    ThreadPool pool(2);
    const std::vector<int> cells = pool.fork_join(4, [&pool](std::size_t c) {
      const std::vector<int> cores = pool.fork_join(4, [&pool, c](std::size_t k) {
        const std::vector<int> leaves = pool.fork_join(
            2, [c, k](std::size_t l) { return static_cast<int>(100 * c + 10 * k + l); });
        return leaves[0] + leaves[1];
      });
      int sum = 0;
      for (const int v : cores) sum += v;
      return sum;
    });
    ASSERT_EQ(cells.size(), 4u);
    for (std::size_t c = 0; c < 4; ++c) {
      // sum over k<4, l<2 of 100c + 10k + l = 800c + 120 + 4.
      EXPECT_EQ(cells[c], static_cast<int>(800 * c + 124)) << c;
    }
  });
}

// A throwing child does not cut the join short: the lowest-index exception
// is rethrown, and only after every sibling has finished.
TEST(ThreadPoolTest, ForkJoinRethrowsOnlyAfterEverySiblingFinished) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  int seen_at_throw = -1;
  try {
    pool.fork_join(8, [&finished](std::size_t i) {
      if (i == 5) throw std::runtime_error("child 5");
      if (i == 2) throw std::runtime_error("child 2");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return ++finished;
    });
    ADD_FAILURE() << "fork_join swallowed the exception";
  } catch (const std::runtime_error& e) {
    seen_at_throw = finished.load();
    EXPECT_EQ(std::string(e.what()), "child 2");
  }
  EXPECT_EQ(seen_at_throw, 6);
  // The pool survives, and fork_join from a non-pool thread still works.
  EXPECT_EQ(pool.fork_join(3, [](std::size_t i) { return i; }).back(), 2u);
}

// A fork queues at its forker's priority plus the offset (speculative work
// goes below its forker's other children), and a handle dropped unjoined
// waits for its task, so the task never outlives what it references.
TEST(ThreadPoolTest, ForkQueuesAtOffsetAndAnUnjoinedHandleWaits) {
  run_with_watchdog([] {
    ThreadPool pool(1);
    std::promise<void> gate;
    auto blocker = pool.submit([opened = gate.get_future().share()] { opened.wait(); });
    std::vector<int> order;
    {
      auto low = pool.fork([&order] { order.push_back(-1); }, -1);
      auto high = pool.fork([&order] { order.push_back(0); });
      gate.set_value();
      blocker.get();
    }  // neither handle joined: both tasks ran before the scope closed
    EXPECT_EQ(order, (std::vector<int>{0, -1}));
    EXPECT_EQ(pool.fork([] { return 7; }).join(), 7);
  });
}

// Children record their spans into the forking thread's sink, whichever
// worker runs them, and nothing leaks into the global log.
TEST(ThreadPoolTest, ForkJoinChildrenInheritTheCallersTraceSink) {
  set_trace_enabled(false);
  trace_reset();
  TraceSink sink(3, "fork");
  ThreadPool pool(2);
  {
    ScopedTraceSink scope(sink);
    pool.fork_join(6, [](std::size_t i) {
      TPI_SPAN("fork.child");
      return i;
    });
  }
  EXPECT_EQ(sink.event_count(), 6u);
  EXPECT_EQ(trace_event_count(), 0u);
}

}  // namespace
}  // namespace tpi
