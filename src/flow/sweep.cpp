#include "flow/sweep.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <utility>

#include "flow/flow_json.hpp"
#include "util/log.hpp"

namespace tpi {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;  // labels are plain ASCII
    out += c;
  }
  return out;
}

std::string stages_json(const StageTimings& t) {
  std::string out = "{";
  bool first = true;
  for (const Stage s : kAllStages) {
    if (!first) out += ", ";
    first = false;
    out += "\"";
    out += stage_name(s);
    out += "\": ";
    out += report_number(t[s]);
  }
  return out + "}";
}

// The cell's ATPG kernel profile, read from the counters and runtime gauges
// run_atpg recorded into its metrics: per-phase wall clock plus the
// (job-count-independent) fault-sim counters. A cell that ran no ATPG
// reads jobs 1 and zeros.
std::string atpg_kernel_json(const MetricsSnapshot& m) {
  auto count = [&m](const char* name) {
    return std::to_string(static_cast<std::uint64_t>(m.number(name)));
  };
  std::string out = "{";
  out += "\"jobs\": " + std::to_string(static_cast<int>(m.number("rt.atpg.jobs", 1))) + ", ";
  out += "\"random_ms\": " + report_number(m.number("rt.atpg.random_ms")) + ", ";
  out += "\"podem_ms\": " + report_number(m.number("rt.atpg.podem_ms")) + ", ";
  out += "\"compaction_ms\": " + report_number(m.number("rt.atpg.compaction_ms")) + ", ";
  out += "\"batches\": " + count("atpg.sim.batches") + ", ";
  out += "\"faults_graded\": " + count("atpg.sim.faults_graded") + ", ";
  out += "\"cone_skips\": " + count("atpg.sim.cone_skips") + ", ";
  out += "\"node_evals\": " + count("atpg.sim.node_evals") + ", ";
  out += "\"events\": " + count("atpg.sim.events") + "}";
  return out;
}

}  // namespace

std::string sanitize_trace_label(const std::string& label) {
  auto safe = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '.' || c == '=' || c == '-';
  };
  std::string out;
  out.reserve(label.size());
  for (const char c : label) {
    if (safe(c)) {
      out += c;
    } else {
      static const char kHex[] = "0123456789abcdef";
      const auto b = static_cast<unsigned char>(c);
      out += '_';
      out += kHex[b >> 4];
      out += kHex[b & 0xF];
    }
  }
  return out;
}

std::string report_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

namespace grid_detail {

std::unique_ptr<Ledger> open_outputs(const SweepOptions& opts) {
  if (!opts.trace_dir.empty()) ::mkdir(opts.trace_dir.c_str(), 0777);  // EEXIST is fine
  if (opts.ledger.empty()) return nullptr;
  return std::make_unique<Ledger>(opts.ledger);
}

}  // namespace grid_detail

std::string GridTotals::json_frame(std::size_t num_cells,
                                   const std::vector<std::string>& entries) const {
  std::string out = "{\n  \"context\": {\n";
  out += "    \"jobs\": " + std::to_string(jobs) + ",\n";
  out += "    \"num_cells\": " + std::to_string(num_cells) + ",\n";
  out += "    \"wall_ms\": " + report_number(wall_ms) + ",\n";
  out += "    \"cpu_ms\": " + report_number(cpu_ms) + ",\n";
  out += "    \"speedup\": " + report_number(speedup()) + "\n";
  out += "  },\n";
  // Deterministic subset only: this line must be bit-identical at any
  // TPI_BENCH_JOBS / TPI_ATPG_JOBS (the sweep tests diff it verbatim).
  out += "  \"metrics\": " + metrics.to_json(MetricsSnapshot::kNoRuntime) + ",\n";
  out += "  \"benchmarks\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    out += (i == 0 ? "    " : ",\n    ") + entries[i];
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string SweepReport::to_json() const {
  std::vector<std::string> entries;
  for (const SweepCellResult& cell : cells) {
    const FlowResult& r = cell.result;
    std::string out = "{\"name\": \"" + json_escape(cell.job.label) + "\", ";
    out += "\"run_type\": \"iteration\", \"iterations\": 1, ";
    out += "\"real_time\": " + report_number(cell.wall_ms) + ", ";
    out += "\"time_unit\": \"ms\", ";
    out += "\"tp_percent\": " + report_number(cell.job.options.tp_percent) + ", ";
    out += "\"num_test_points\": " + std::to_string(r.num_test_points) + ", ";
    out += "\"num_cells\": " + std::to_string(r.num_cells) + ", ";
    out += "\"saf_patterns\": " + std::to_string(r.saf_patterns) + ", ";
    out += "\"chip_area_um2\": " + report_number(r.chip_area_um2) + ", ";
    out += "\"wire_length_um\": " + report_number(r.wire_length_um) + ", ";
    out += "\"t_cp_ps\": " + report_number(r.sta.worst.valid ? r.sta.worst.t_cp_ps : 0.0) + ", ";
    // Conditional keys: stuck-at cells keep the seed's exact layout.
    if (r.atpg.fault_model == FaultModel::kTransition) {
      out += "\"fault_model\": \"transition\", ";
    }
    if (r.at_speed.ran) {
      out += "\"at_speed\": {";
      out += "\"capture_period_ps\": " + report_number(r.at_speed.capture_period_ps) + ", ";
      out += "\"at_speed_coverage_pct\": " +
             report_number(r.at_speed.at_speed_coverage_pct) + ", ";
      out += "\"slow_speed_coverage_pct\": " +
             report_number(r.at_speed.slow_speed_coverage_pct) + ", ";
      out += "\"coverage_delta_pct\": " + report_number(r.at_speed.coverage_delta_pct()) +
             ", ";
      out += "\"qualified_faults\": " + std::to_string(r.at_speed.qualified_faults) + "}, ";
    }
    out += "\"atpg_kernel\": " + atpg_kernel_json(r.metrics) + ", ";
    out += "\"stages\": " + stages_json(r.timings) + "}";
    entries.push_back(std::move(out));
  }
  for (const Stage s : kAllStages) {
    entries.push_back(std::string("{\"name\": \"stage_totals/") + stage_name(s) +
                      "\", \"run_type\": \"aggregate\", \"aggregate_name\": \"total\", " +
                      "\"real_time\": " +
                      report_number(stage_total_ms[static_cast<std::size_t>(s)]) +
                      ", \"time_unit\": \"ms\"}");
  }
  return json_frame(cells.size(), entries);
}

bool SweepReport::write_json(const std::string& path) const {
  return write_file(to_json(), path, "SweepReport");
}

GridRunner::GridRunner(SweepOptions opts) : opts_(std::move(opts)) {}

GridRunner::GridRunner(const FlowConfig& config) {
  opts_.jobs = config.effective_bench_jobs();
  opts_.trace_dir = config.trace_dir;
  opts_.ledger = config.ledger;
}

int GridRunner::effective_jobs() const {
  return opts_.jobs > 0 ? opts_.jobs : static_cast<int>(ThreadPool::default_concurrency());
}

std::vector<SweepJob> SweepRunner::grid(const std::vector<CircuitProfile>& circuits,
                                        const std::vector<double>& tp_percents,
                                        const FlowConfig& config) {
  return grid(circuits, tp_percents, config.options, config.stages);
}

std::vector<SweepJob> SweepRunner::grid(const std::vector<CircuitProfile>& circuits,
                                        const std::vector<double>& tp_percents,
                                        const FlowOptions& base_options, StageMask stages) {
  std::vector<SweepJob> jobs;
  jobs.reserve(circuits.size() * tp_percents.size());
  for (const CircuitProfile& profile : circuits) {
    for (const double pct : tp_percents) {
      SweepJob job;
      char pct_str[32];
      std::snprintf(pct_str, sizeof pct_str, "%g", pct);
      job.label = profile.name + "/tp=" + pct_str;
      job.profile = profile;
      job.options = base_options;
      job.options.tp_percent = pct;
      job.stages = stages;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

SweepReport SweepRunner::run(const CellLibrary& lib, std::vector<SweepJob> jobs) const {
  SweepReport report;
  report.jobs = effective_jobs();
  FlowObserver* observer = opts_.observer;
  ThreadPool pool(static_cast<unsigned>(report.jobs));
  run_grid(
      pool, opts_, "sweep", std::move(jobs),
      [&lib, observer](const SweepJob& job) {
        FlowEngine engine(lib, job.profile, job.options);
        engine.set_job_label(job.label);
        engine.set_observer(observer);
        engine.run(job.stages);
        return engine.result();
      },
      [](const SweepJob& job, const FlowResult& result) {
        CellLedgerLine line;
        line.config.profile = job.profile.name;
        line.config.options = job.options;
        line.config.stages = job.stages;
        line.result = flow_result_to_json_value(result);
        return line;
      },
      report);
  for (const SweepCellResult& cell : report.cells) {
    for (const Stage s : kAllStages) {
      report.stage_total_ms[static_cast<std::size_t>(s)] += cell.result.timings[s];
    }
  }
  return report;
}

}  // namespace tpi
