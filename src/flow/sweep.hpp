// Parallel sweep runner for the paper's experiment grids. Every table in
// the paper is a (circuit × tp_percent) grid of independent full-layout
// runs; SweepRunner executes such a grid on a fixed-size thread pool with
// deterministic per-task seeding (each cell's seeds derive only from its
// FlowOptions::seed and CircuitProfile::seed, never from scheduling), so
// the results are bit-identical at any job count — including jobs = 1,
// which the equivalence tests use as the serial reference.
//
// The runner aggregates per-stage wall-clock totals across the grid and
// can serialise the whole report as google-benchmark-style JSON (the
// format emitted by bench_kernel_microbench --benchmark_format=json), so
// the same tooling can consume kernel and flow-level timings.
//
// run_grid() is the cell runner SweepRunner and SocSweepRunner share:
// cells fan out with ThreadPool::fork_join, and it owns the per-cell
// trace files, the ledger lines and the report totals.
#pragma once

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "flow/flow.hpp"
#include "flow/flow_config.hpp"
#include "util/json.hpp"
#include "util/ledger.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace tpi {

/// Collision-free file-name form of a job label: `[A-Za-z0-9.=-]` bytes
/// pass through, every other byte becomes `_` + two lowercase hex digits
/// ("s38417/tp=2" -> "s38417_2ftp=2"). Because `_` itself is escaped
/// ("_5f"), the mapping is injective — two distinct labels can never land
/// in the same trace file, which the old '/'-to-'_' mapping allowed
/// ("s38417/tp=2" vs "s38417_tp=2").
std::string sanitize_trace_label(const std::string& label);

/// One grid cell: a full flow run of `profile` with `options`
/// (tp_percent and seeds live inside `options`), restricted to `stages`.
struct SweepJob {
  std::string label;  ///< report key, e.g. "s38417/tp=2"
  CircuitProfile profile;
  FlowOptions options;
  StageMask stages = StageMask::all();
};

struct SweepOptions {
  /// Worker threads; <= 0 selects ThreadPool::default_concurrency().
  int jobs = 0;
  /// Announce each cell on stderr as a worker picks it up.
  bool progress = true;
  /// Observer attached to every FlowEngine (must be thread-safe when
  /// jobs > 1); nullptr = none.
  FlowObserver* observer = nullptr;
  /// Per-cell flight recorder directory (TPI_TRACE_DIR / FlowConfig
  /// trace_dir): each cell's spans go to its own TraceSink and are written
  /// as <trace_dir>/<sanitize_trace_label(label)>.trace.json, so
  /// concurrent cells never interleave in one trace. Empty = off.
  std::string trace_dir;
  /// Run-ledger JSONL path (TPI_LEDGER / FlowConfig ledger): every cell's
  /// deterministic flow result is appended in submission order. Empty = off.
  std::string ledger;
};

/// One finished grid cell.
template <typename Job, typename Result>
struct GridCell {
  Job job;
  Result result;
  double wall_ms = 0.0;  ///< whole-cell wall clock
};

/// The totals every grid report carries.
struct GridTotals {
  int jobs = 1;          ///< pool worker threads
  double wall_ms = 0.0;  ///< grid wall clock
  double cpu_ms = 0.0;   ///< sum of per-cell wall clocks
  /// Per-cell result metrics merged in submission order. Deterministic
  /// metrics are bit-identical at any job count; reports serialise only
  /// those (MetricsSnapshot::kNoRuntime).
  MetricsSnapshot metrics;

  /// Parallel speedup actually realised: cpu_ms / wall_ms.
  double speedup() const { return wall_ms > 0.0 ? cpu_ms / wall_ms : 1.0; }

  /// google-benchmark-style JSON: {"context": ..., "metrics": ...,
  /// "benchmarks": [...]} around `entries`, one benchmark object each.
  std::string json_frame(std::size_t num_cells, const std::vector<std::string>& entries) const;
};

template <typename Job, typename Result>
struct GridReport : GridTotals {
  std::vector<GridCell<Job, Result>> cells;  ///< in job submission order
};

using SweepCellResult = GridCell<SweepJob, FlowResult>;

struct SweepReport : GridReport<SweepJob, FlowResult> {
  std::array<double, kNumStages> stage_total_ms{};  ///< per-stage totals

  /// json_frame with one entry per cell (real_time = cell wall clock,
  /// per-stage times under "stages") plus one "stage_totals/<stage>"
  /// aggregate per stage.
  std::string to_json() const;

  /// to_json() written to `path` (returns false + warning on I/O failure).
  bool write_json(const std::string& path) const;
};

/// The report JSON's number format ("%.4f").
std::string report_number(double v);

/// What a grid cell appends to the run ledger: its effective config (the
/// fingerprint) and its deterministic result payload.
struct CellLedgerLine {
  FlowConfig config;
  JsonValue result;
};

namespace grid_detail {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Creates opts.trace_dir when set; opens opts.ledger (nullptr when unset).
std::unique_ptr<Ledger> open_outputs(const SweepOptions& opts);

}  // namespace grid_detail

/// The cell runner SweepRunner and SocSweepRunner share. Runs
/// run_cell(job) for every job as one ThreadPool::fork_join on `pool`, so
/// cells run in parallel and may fork further work onto the same pool (a
/// SOC cell fans out its cores). Each cell announces itself on stderr as
/// "[<tag>] <label>..." when opts.progress. With opts.trace_dir set, the
/// spans of a cell and of every task it forks go to its own TraceSink,
/// written to <trace_dir>/<sanitize_trace_label(label)>.trace.json, so
/// concurrent cells never share a trace. Once every cell is done, it
/// appends one ledger line per cell (ledger_line(job, result)) in
/// submission order, then fills `report`: cells in submission order,
/// wall_ms, cpu_ms and the merged metrics. A cell's exception propagates
/// after every other cell has finished, before anything is appended.
template <typename Job, typename Result, typename RunCell, typename LedgerLineFn>
void run_grid(ThreadPool& pool, const SweepOptions& opts, const char* tag,
              std::vector<Job> jobs, RunCell run_cell, LedgerLineFn ledger_line,
              GridReport<Job, Result>& report) {
  using grid_detail::ms_since;
  const std::unique_ptr<Ledger> ledger = grid_detail::open_outputs(opts);
  const grid_detail::Clock::time_point t0 = grid_detail::Clock::now();
  std::vector<std::pair<Result, double>> outs =
      pool.fork_join(jobs.size(), [&](std::size_t i) {
        const Job& job = jobs[i];
        if (opts.progress) std::fprintf(stderr, "[%s] %s...\n", tag, job.label.c_str());
        const grid_detail::Clock::time_point c0 = grid_detail::Clock::now();
        std::optional<TraceSink> sink;
        std::optional<ScopedTraceSink> scope;
        if (!opts.trace_dir.empty()) scope.emplace(sink.emplace(i + 1, job.label));
        std::pair<Result, double> out{run_cell(job), 0.0};
        scope.reset();
        if (sink) {
          sink->write_json(opts.trace_dir + "/" + sanitize_trace_label(job.label) +
                           ".trace.json");
        }
        out.second = ms_since(c0);
        return out;
      });
  report.wall_ms = ms_since(t0);
  report.cells.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    auto& [result, wall_ms] = outs[i];
    if (ledger != nullptr) {
      const CellLedgerLine line = ledger_line(jobs[i], result);
      const JsonParseResult cfg = json_parse(line.config.to_json());
      ledger->append(jobs[i].label, cfg.ok ? cfg.value : JsonValue(JsonObject{}),
                     line.result);
    }
    report.cpu_ms += wall_ms;
    report.metrics.merge(result.metrics);
    report.cells.push_back({std::move(jobs[i]), std::move(result), wall_ms});
  }
}

/// Options and pool sizing every grid runner shares.
class GridRunner {
 public:
  explicit GridRunner(SweepOptions opts = {});
  /// Runner sized from a unified FlowConfig (jobs =
  /// config.effective_bench_jobs(), trace_dir, ledger; progress on).
  explicit GridRunner(const FlowConfig& config);

  /// Number of worker threads run() will use.
  int effective_jobs() const;

 protected:
  SweepOptions opts_;
};

class SweepRunner : public GridRunner {
 public:
  using GridRunner::GridRunner;

  /// Execute all jobs on a pool of effective_jobs() workers via run_grid;
  /// blocks until the grid is done. An exception escaping a cell's flow
  /// run is rethrown here after the remaining cells finish.
  SweepReport run(const CellLibrary& lib, std::vector<SweepJob> jobs) const;

  /// The paper's grid: every circuit at every tp_percent, as jobs in
  /// circuit-major order with labels "<circuit>/tp=<pct>".
  static std::vector<SweepJob> grid(const std::vector<CircuitProfile>& circuits,
                                    const std::vector<double>& tp_percents,
                                    const FlowOptions& base_options,
                                    StageMask stages = StageMask::all());

  /// Same grid from a unified FlowConfig: cells inherit config.options
  /// (atpg jobs, seeds, verify budget) and run config.stages.
  static std::vector<SweepJob> grid(const std::vector<CircuitProfile>& circuits,
                                    const std::vector<double>& tp_percents,
                                    const FlowConfig& config);
};

}  // namespace tpi
