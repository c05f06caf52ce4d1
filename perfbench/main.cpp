// tpi_perfbench — the repository benchmark.
//
//   tpi_perfbench --workload table1_atpg|paper_layout|server_mix --seed N
//                 --seconds S --trace 0|1 --server-bin PATH --state-dir DIR
//
// Runs one workload for about S seconds, checks its outputs, prints every
// metric by name with its unit, and ends stdout with one JSON line:
// {"correct", "attempted", "failed", "metrics"} carrying the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
// perfbench/run.py builds this binary and is the entry point users call.
//
// DIR keeps, per (workload, seed), the result digest and the exact work
// counters of earlier runs: a later run whose digest differs fails, and a
// counter that differs is flagged (bench.counts_stable = 0).
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "sim/simd.hpp"
#include "util/json.hpp"
#include "util/log.hpp"

namespace {

using perfbench::Report;

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "tpi_perfbench: %s\nusage: tpi_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --server-bin PATH --state-dir DIR\n",
               msg);
  std::exit(2);
}

const char* sanitizer_in_use() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "compiled-in";
#else
  return TPI_PERFBENCH_SANITIZE[0] != '\0' ? TPI_PERFBENCH_SANITIZE : "none";
#endif
}

/// Compare this run's digest and counters with the ones stored for the
/// same (workload, seed), then store them. Returns false when a counter
/// differs; a differing digest fails the run.
bool check_against_state(const perfbench::Options& opts, Report& report) {
  if (opts.state_dir.empty()) return true;
  ::mkdir(opts.state_dir.c_str(), 0777);
  const std::string path =
      opts.state_dir + "/" + opts.workload + "_seed" + std::to_string(opts.seed) + ".json";
  bool stable = true;
  std::ifstream in(path);
  if (in) {
    std::stringstream buf;
    buf << in.rdbuf();
    const tpi::JsonParseResult prev = tpi::json_parse(buf.str());
    if (prev.ok) {
      const tpi::JsonValue* digest = prev.value.find("digest");
      report.check(digest != nullptr && digest->as_string() == report.digest,
                   "result digest " + report.digest + " repeats the earlier run's " +
                       (digest != nullptr ? digest->as_string() : std::string("?")));
      if (const tpi::JsonValue* counts = prev.value.find("counts")) {
        for (const auto& [name, value] : counts->as_object()) {
          const auto it = report.counts.find(name);
          if (it == report.counts.end() || it->second != value.as_number()) {
            std::printf("FLAG count %s not exact: %.17g earlier, %.17g now\n", name.c_str(),
                        value.as_number(), it == report.counts.end() ? -1.0 : it->second);
            stable = false;
          }
        }
      }
    }
  }
  tpi::JsonValue state{tpi::JsonObject{}};
  state.set("digest", report.digest);
  tpi::JsonValue counts{tpi::JsonObject{}};
  for (const auto& [name, value] : report.counts) counts.set(name, value);
  state.set("counts", std::move(counts));
  std::ofstream(path) << state.serialise() << "\n";
  return stable;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--server-bin") {
      opts.server_bin = value;
    } else if (flag == "--state-dir") {
      opts.state_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (trace != 0 && trace != 1) usage("--trace must be 0 or 1");
  if (opts.seconds <= 0.0) usage("--seconds must be positive");
  opts.trace = trace == 1;
  opts.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  tpi::set_log_level(tpi::LogLevel::kWarn);

  const std::string build_type = TPI_PERFBENCH_BUILD_TYPE;
  const std::string sanitize = sanitizer_in_use();
  std::printf("context nproc=%d build=%s simd=%s sanitize=%s workload=%s seed=%llu "
              "seconds=%g trace=%d\n",
              opts.nproc, build_type.c_str(),
              tpi::simd_backend_name(tpi::simd_backend()), sanitize.c_str(),
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed), opts.seconds,
              trace);
  if (build_type != "Release" || sanitize != "none") {
    std::fprintf(stderr,
                 "tpi_perfbench: refusing to measure a %s build with sanitizer '%s'; "
                 "build Release without TPI_SANITIZE\n",
                 build_type.c_str(), sanitize.c_str());
    return 3;
  }

  Report report;
  if (opts.workload == "table1_atpg") {
    perfbench::run_table1_atpg(opts, report);
  } else if (opts.workload == "paper_layout") {
    perfbench::run_paper_layout(opts, report);
  } else if (opts.workload == "server_mix") {
    perfbench::run_server_mix(opts, report);
  } else {
    usage(("unknown workload " + opts.workload).c_str());
  }
  const bool counts_stable = check_against_state(opts, report);
  const double rss_self = perfbench::peak_rss_self_mb();
  const double rss_children = perfbench::peak_rss_children_mb();
  std::printf("peak_rss self=%.1f MiB children=%.1f MiB\n", rss_self, rss_children);
  report.metric("peak_rss_mb", std::max(rss_self, rss_children));
  if (opts.trace) {
    // Workloads report the within-run comparisons (e.g. ATPG jobs=1 vs
    // nproc); fold in the comparison with earlier runs.
    const auto within = report.layers().find("bench.counts_stable");
    const bool stable_within = within == report.layers().end() || within->second == 1.0;
    report.layer("bench.counts_stable", stable_within && counts_stable ? 1.0 : 0.0);
  }

  std::printf("digest %s\n", report.digest.c_str());
  for (const auto& [name, value] : report.counts) {
    std::printf("count %-34s %.17g\n", name.c_str(), value);
  }
  std::printf("failed_ratio %.6f (%ld of %ld operations)\n",
              report.attempted() > 0
                  ? static_cast<double>(report.failed()) / static_cast<double>(report.attempted())
                  : 1.0,
              report.failed(), report.attempted());

  const std::vector<perfbench::MetricDef>& defs =
      opts.trace ? perfbench::kPerLayer : perfbench::kEndToEnd;
  const std::map<std::string, double>& values = opts.trace ? report.layers() : report.metrics();
  tpi::JsonValue metrics{tpi::JsonObject{}};
  bool complete = true;
  for (const perfbench::MetricDef& def : defs) {
    const auto it = values.find(def.name);
    if (it == values.end()) {
      std::fprintf(stderr, "tpi_perfbench: workload produced no %s\n", def.name);
      complete = false;
      continue;
    }
    std::printf("metric %-34s %.6g %s\n", def.name, it->second, def.unit);
    tpi::JsonValue m{tpi::JsonObject{}};
    m.set("value", it->second);
    m.set("unit", def.unit);
    metrics.set(def.name, std::move(m));
  }
  if (!complete || report.attempted() == 0) return 4;

  tpi::JsonValue out{tpi::JsonObject{}};
  out.set("correct", report.failed() == 0);
  out.set("attempted", static_cast<std::int64_t>(report.attempted()));
  out.set("failed", static_cast<std::int64_t>(report.failed()));
  out.set("metrics", std::move(metrics));
  std::printf("%s\n", out.serialise().c_str());
  return 0;
}
