// Shared plumbing of the repository benchmark (tpi_perfbench): run options,
// the metric report, the benchmark's own span log, and the stage observer
// that records flow stages and routes the program's spans into per-cell
// TraceSinks. Every workload drives the system only through its public
// entry points and times the calls from outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "circuits/profiles.hpp"
#include "flow/flow.hpp"
#include "util/metrics.hpp"
#include "util/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (q in [0,1]) of `v`; 0 when empty.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// splitmix64 step: derives independent sub-seeds from the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// FNV-1a 64-bit running hash (result digests).
struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void add(const std::string& s);
  std::string hex() const;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;
  std::string server_bin;  ///< tpi_flow_server daemon (server_mix)
  std::string state_dir;   ///< run state: digests, counters, traces, server socket
};

/// A metric the benchmark reports: name and unit. The two tables below are
/// the contract with BENCHMARK.json: every workload prints every entry.
struct MetricDef {
  const char* name;
  const char* unit;
};
extern const std::vector<MetricDef> kEndToEnd;  ///< printed with --trace 0
extern const std::vector<MetricDef> kPerLayer;  ///< printed with --trace 1

/// Everything one run measures. End-to-end metrics come from untraced
/// passes, per-layer metrics from the traced pass; `counts` are the exact
/// per-layer work counters the stability checks compare.
class Report {
 public:
  void metric(const std::string& name, double value) { metrics_[name] = value; }
  void layer(const std::string& name, double value) { layers_[name] = value; }

  /// One operation (a flow cell, a server job, a PODEM replay): attempted,
  /// and failed when `ok` is false (`what` is logged).
  void op(bool ok, const std::string& what = "");
  /// A run-level output check; a failing check counts as a failed op.
  void check(bool ok, const std::string& what) { op(ok, what); }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  const std::map<std::string, double>& metrics() const { return metrics_; }
  const std::map<std::string, double>& layers() const { return layers_; }

  /// Exact per-layer work counters of one pass (stability checks).
  std::map<std::string, double> counts;
  /// Digest of the deterministic results of one pass.
  std::string digest;

 private:
  std::map<std::string, double> metrics_;
  std::map<std::string, double> layers_;
  long attempted_ = 0;
  long failed_ = 0;
};

/// The benchmark's own spans, kept in memory and written once at the end
/// as Chrome trace JSON. Spans of one cell/job share `trace`; `parent` is
/// the id of the span that caused it (-1 for roots).
class SpanLog {
 public:
  int begin(const std::string& name, const std::string& trace, int parent = -1);
  void end(int id);
  int add(const std::string& name, const std::string& trace, int parent,
          Clock::time_point begin, Clock::time_point end);

  /// Chrome trace JSON to <state_dir>/trace_<workload>_seed<N>.json.
  void write(const Options& opts) const;

 private:
  struct Span {
    std::string name, trace;
    int parent;
    Clock::time_point begin, end;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on a SpanLog (no-op when the log is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, const std::string& trace, int parent = -1)
      : log_(log), id_(log != nullptr ? log->begin(name, trace, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

/// Summed span durations by name, in milliseconds.
using SpanTotals = std::map<std::string, double>;

/// Fold a Chrome trace JSON (TraceSink::to_json, the server's trace RPC)
/// into per-name totals.
void add_chrome_trace(const std::string& json, SpanTotals& totals);

/// FlowObserver for traced passes: records one "flow.<stage>" span per
/// stage into the SpanLog (trace = the engine's job label, parent = the
/// cell span registered with set_parent), and while a stage runs scopes a
/// per-label TraceSink on the stage's thread so the program's own spans
/// (atpg.*, placement.*, ...) are captured in memory. Thread-safe: stages
/// of concurrent sweep cells run on different threads.
class StageRecorder : public tpi::FlowObserver {
 public:
  explicit StageRecorder(SpanLog& log) : log_(log) {}

  void set_parent(const std::string& label, int span_id);
  void on_stage_begin(const tpi::StageEvent& event) override;
  void on_stage_end(const tpi::StageEvent& event) override;

  /// Program span totals across every cell seen so far.
  SpanTotals program_spans() const;

 private:
  struct Open {
    int span = -1;
    std::unique_ptr<tpi::ScopedTraceSink> scope;
  };
  SpanLog& log_;
  mutable std::mutex mu_;
  std::map<std::string, int> parents_;
  std::map<std::string, std::unique_ptr<tpi::TraceSink>> sinks_;
  std::map<std::string, Open> open_;  ///< by label: the running stage
};

/// The exact work counters every workload reports (atpg.podem.*,
/// atpg.sim.*, designdb.*, placement.global_iterations, routing.*,
/// sta.slow_nodes, sim.good_node_evals), summed from `snap` into `out`.
void add_layer_counts(const tpi::MetricsSnapshot& snap, std::map<std::string, double>& out);

/// Per-layer metrics derived from work counters and the program's span
/// totals, shared by all workloads (absent inputs read as 0).
void report_layers(Report& report, const std::map<std::string, double>& counts,
                   const SpanTotals& spans);

/// The paper's three circuit profiles at `scale`, names and generator
/// seeds kept: the paper's tables are about these three circuits.
std::vector<tpi::CircuitProfile> paper_profiles_at(double scale);

/// "s38417/tp=1" style cell label.
std::string cell_label(const std::string& circuit, double tp_percent);

/// Deterministic result fields of one flow (the digest input).
std::string result_line(const tpi::FlowResult& r);

/// Layout quality of one flow: the inputs of the end-to-end QoR metrics.
struct Qor {
  double chip_area_um2 = 0.0;
  double wire_length_um = 0.0;
  double t_cp_ps = 0.0;  ///< STA worst clock period; 0 when STA did not run
};
Qor qor_of(const tpi::FlowResult& r);

/// Mean chip area, wire length and F_max over `flows` into the end-to-end
/// quality-of-results metrics.
void report_qor(Report& report, const std::vector<Qor>& flows);

/// Time analyze_testability and rank_tpi_candidates on `nl` from outside,
/// adding to the two totals and recording a span for each call; false when
/// the ranking came back empty.
bool time_tpi_calls(const tpi::Netlist& nl, SpanLog& log, double& analyze_ms, double& rank_ms);

/// Peak resident set size of this process and of its largest waited-for
/// child (the flow server daemon), MiB.
double peak_rss_self_mb();
double peak_rss_children_mb();

// Workloads (one translation unit each).
void run_table1_atpg(const Options& opts, Report& report);
void run_paper_layout(const Options& opts, Report& report);
void run_server_mix(const Options& opts, Report& report);

}  // namespace perfbench
