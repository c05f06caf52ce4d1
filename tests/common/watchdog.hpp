// Watchdog for tests of code that could block forever (pool joins, server
// shutdown): a hang must fail the test binary, not stall ctest.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <thread>

namespace tpi::test {

/// Runs `body` on its own thread and fails the whole test binary if it has
/// not returned within `limit`.
inline void run_with_watchdog(const std::function<void()>& body,
                              std::chrono::seconds limit = std::chrono::seconds(60)) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&body, &done] {
    body();
    done.set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "watchdog: no progress after %llds, deadlock\n",
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  runner.join();
}

}  // namespace tpi::test
