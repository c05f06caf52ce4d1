// Load-test client for the flow server (and the server_smoke ctest
// target): spawns the daemon, hammers it with concurrent clients over the
// unix socket, validates every JSON-RPC response, then asks for stats and
// a clean shutdown.
//
//   bench_server_loadtest <path-to-tpi_flow_server> [clients] [jobs-per-client]
//                         [--poll-stats]
//
// Each client submits small-scale flow jobs cycling through repeated
// (profile, tp_percent) combinations — repeats are what make the server's
// keyed design cache pay off, and the stats RPC at the end asserts
// server.cache.hits > 0. With --poll-stats a dedicated poller thread
// hammers the stats + metrics RPCs for the whole soak (telemetry
// exposition concurrent with job traffic — the snapshot-tearing check)
// and reports its poll count and latency. Exit status 0 = every response
// well formed, every job finished "done", the daemon exited 0.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "server/client.hpp"
#include "util/json.hpp"

namespace {

std::atomic<int> g_failures{0};

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "[server_loadtest] FAIL: %s\n", what.c_str());
    ++g_failures;
  }
}

// Parse a response line and return result.<field> as a double (NaN-free
// protocol: all our numbers are finite). Fails the run when the line is
// not a valid response object.
bool response_result(const std::string& line, tpi::JsonValue& result_out) {
  const tpi::JsonParseResult parsed = tpi::json_parse(line);
  if (!parsed.ok) {
    check(false, "malformed response: " + parsed.error + " in " + line);
    return false;
  }
  if (!parsed.value.is_object()) {
    check(false, "response is not an object: " + line);
    return false;
  }
  if (const tpi::JsonValue* err = parsed.value.find("error")) {
    check(false, "RPC error: " + err->serialise());
    return false;
  }
  const tpi::JsonValue* result = parsed.value.find("result");
  if (result == nullptr) {
    check(false, "response without result: " + line);
    return false;
  }
  result_out = *result;
  return true;
}

void run_client(const std::string& socket_path, int client_idx, int jobs) {
  tpi::FlowClient client;
  std::string error;
  if (!client.connect(socket_path, &error)) {
    check(false, "client connect: " + error);
    return;
  }
  const char* profiles[] = {"s38417", "circuit1"};
  for (int j = 0; j < jobs; ++j) {
    // Cycle a small set of repeated configs so the design cache gets hits.
    const char* profile = profiles[(client_idx + j) % 2];
    const int pct = (j % 2) * 2;
    char params[256];
    std::snprintf(params, sizeof params,
                  "{\"profile\": \"%s\", \"scale\": 0.02, \"tp_percent\": %d, "
                  "\"priority\": %d}",
                  profile, pct, j % 3);
    std::string line;
    if (!client.rpc("submit", params, &line, &error)) {
      check(false, "submit: " + error);
      return;
    }
    tpi::JsonValue result;
    if (!response_result(line, result)) return;
    const tpi::JsonValue* job_id = result.find("job");
    check(job_id != nullptr && job_id->is_number(), "submit returned a job id");
    if (job_id == nullptr) return;

    char wait_params[64];
    std::snprintf(wait_params, sizeof wait_params, "{\"job\": %.0f, \"wait\": true}",
                  job_id->as_number());
    if (!client.rpc("result", wait_params, &line, &error)) {
      check(false, "result: " + error);
      return;
    }
    if (!response_result(line, result)) return;
    const tpi::JsonValue* state = result.find("state");
    check(state != nullptr && state->is_string() && state->as_string() == "done",
          "job finished done: " + line.substr(0, 160));
    const tpi::JsonValue* flow = result.find("flow");
    check(flow != nullptr && flow->is_object(), "result carries a flow object");
    if (flow != nullptr && flow->is_object()) {
      const tpi::JsonValue* cells = flow->find("num_cells");
      check(cells != nullptr && cells->is_number() && cells->as_number() > 0,
            "flow.num_cells > 0");
      check(flow->find("metrics") != nullptr, "flow.metrics present");
    }
  }
}

// Telemetry poller (--poll-stats): one connection issuing stats + metrics
// RPCs back to back until told to stop. Runs concurrently with the job
// clients, so every snapshot it reads races live submits/completions —
// responses must still parse and be internally consistent (no tearing).
struct PollReport {
  long polls = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
};

void run_poller(const std::string& socket_path, const std::atomic<bool>& stop,
                PollReport& report) {
  using Clock = std::chrono::steady_clock;
  tpi::FlowClient client;
  std::string error;
  if (!client.connect(socket_path, &error)) {
    check(false, "poller connect: " + error);
    return;
  }
  std::string line;
  tpi::JsonValue result;
  while (!stop.load(std::memory_order_relaxed)) {
    const auto t0 = Clock::now();
    if (!client.rpc("stats", "{}", &line, &error)) {
      check(false, "poll stats: " + error);
      return;
    }
    if (!response_result(line, result)) return;
    const tpi::JsonValue* jobs = result.find("jobs");
    check(jobs != nullptr && jobs->is_object(), "stats snapshot carries jobs");

    if (!client.rpc("metrics", "{\"format\": \"prometheus\"}", &line, &error)) {
      check(false, "poll metrics: " + error);
      return;
    }
    if (!response_result(line, result)) return;
    const tpi::JsonValue* prom = result.find("prometheus");
    check(prom != nullptr && prom->is_string(), "metrics returned exposition text");
    if (prom != nullptr && prom->is_string() && !prom->as_string().empty()) {
      check(prom->as_string().find("# TYPE tpi_") != std::string::npos,
            "exposition carries tpi_-prefixed TYPE lines");
    }

    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    ++report.polls;
    report.total_ms += ms;
    if (ms > report.max_ms) report.max_ms = ms;
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bench_server_loadtest <tpi_flow_server> [clients] [jobs] "
                 "[--poll-stats]\n");
    return 2;
  }
  const char* server_bin = argv[1];
  bool poll_stats = false;
  std::vector<const char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--poll-stats") == 0) {
      poll_stats = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  const int clients = positional.size() > 0 ? std::atoi(positional[0]) : 4;
  const int jobs_per_client = positional.size() > 1 ? std::atoi(positional[1]) : 5;

  char dir_template[] = "/tmp/tpi_server_XXXXXX";
  if (::mkdtemp(dir_template) == nullptr) {
    std::perror("mkdtemp");
    return 2;
  }
  const std::string socket_path = std::string(dir_template) + "/flow.sock";

  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return 2;
  }
  if (pid == 0) {
    ::execl(server_bin, server_bin, "--socket", socket_path.c_str(), "--workers", "4",
            static_cast<char*>(nullptr));
    std::perror("execl");
    std::_Exit(127);
  }

  // Wait for the daemon to bind.
  tpi::FlowClient probe;
  bool up = false;
  for (int i = 0; i < 500; ++i) {
    if (probe.connect(socket_path)) {
      up = true;
      break;
    }
    ::usleep(20 * 1000);
  }
  check(up, "server came up on " + socket_path);

  if (up) {
    std::atomic<bool> poll_stop{false};
    PollReport poll_report;
    std::thread poller;
    if (poll_stats) {
      poller = std::thread([&socket_path, &poll_stop, &poll_report] {
        run_poller(socket_path, poll_stop, poll_report);
      });
    }

    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&socket_path, c, jobs_per_client] {
        run_client(socket_path, c, jobs_per_client);
      });
    }
    for (std::thread& t : threads) t.join();

    if (poller.joinable()) {
      poll_stop.store(true);
      poller.join();
      check(poll_report.polls > 0, "poller completed at least one scrape");
      std::fprintf(stderr,
                   "[server_loadtest] poller: %ld stats+metrics polls, "
                   "mean %.2f ms, max %.2f ms\n",
                   poll_report.polls,
                   poll_report.polls > 0 ? poll_report.total_ms / poll_report.polls
                                         : 0.0,
                   poll_report.max_ms);
    }

    std::string line, error;
    tpi::JsonValue result;
    if (!probe.rpc("stats", "{}", &line, &error)) {
      check(false, "stats: " + error);
    } else if (response_result(line, result)) {
      std::fprintf(stderr, "[server_loadtest] stats: %s\n", line.c_str());
      const tpi::JsonValue* hits = result.find("server.cache.hits");
      check(hits != nullptr && hits->is_number() && hits->as_number() > 0,
            "server.cache.hits > 0 after repeated profiles");
      const tpi::JsonValue* misses = result.find("server.cache.misses");
      check(misses != nullptr && misses->is_number() && misses->as_number() <= 2,
            "dedup: at most one miss per distinct profile");
    }
    if (probe.rpc("shutdown", "{}", &line, &error)) {
      check(response_result(line, result), "shutdown acknowledged");
    } else {
      check(false, "shutdown: " + error);
    }
  }

  int status = 0;
  if (::waitpid(pid, &status, 0) < 0) {
    std::perror("waitpid");
    ++g_failures;
  } else {
    check(WIFEXITED(status) && WEXITSTATUS(status) == 0, "daemon exited 0");
  }
  ::unlink(socket_path.c_str());
  ::rmdir(dir_template);

  const int failures = g_failures.load();
  if (failures == 0) {
    std::fprintf(stderr, "[server_loadtest] OK: %d clients x %d jobs\n", clients,
                 jobs_per_client);
    return 0;
  }
  std::fprintf(stderr, "[server_loadtest] %d check(s) failed\n", failures);
  return 1;
}
