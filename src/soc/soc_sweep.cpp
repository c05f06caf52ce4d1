#include "soc/soc_sweep.hpp"

#include <cstdio>
#include <utility>

#include "flow/flow_config.hpp"
#include "util/log.hpp"

namespace tpi {
namespace {

/// The cell's effective FlowConfig, for the ledger's config fingerprint.
FlowConfig cell_config(const SocSweepJob& job) {
  FlowConfig cfg;
  cfg.scale = job.options.scale;
  cfg.options = job.options.flow;
  cfg.stages = job.options.stages;
  cfg.soc.cores = job.options.cores;
  cfg.soc.tam_width = job.options.tam_width;
  cfg.soc.schedule = soc_schedule_name(job.options.schedule);
  return cfg;
}

}  // namespace

std::vector<SocSweepJob> SocSweepRunner::grid(const std::vector<int>& cores,
                                              const std::vector<int>& tam_widths,
                                              const std::vector<double>& tp_percents,
                                              const FlowConfig& config) {
  std::vector<SocSweepJob> jobs;
  jobs.reserve(cores.size() * tam_widths.size() * tp_percents.size());
  for (const int n : cores) {
    for (const int w : tam_widths) {
      for (const double pct : tp_percents) {
        SocSweepJob job;
        char pct_str[32];
        std::snprintf(pct_str, sizeof pct_str, "%g", pct);
        job.label = "soc=" + std::to_string(n) + "/tam=" + std::to_string(w) +
                    "/tp=" + pct_str;
        job.options = soc_options_from(config);
        job.options.cores = n;
        job.options.tam_width = w;
        job.options.flow.tp_percent = pct;
        jobs.push_back(std::move(job));
      }
    }
  }
  return jobs;
}

SocSweepReport SocSweepRunner::run(const CellLibrary& lib,
                                   std::vector<SocSweepJob> jobs) const {
  SocSweepReport report;
  report.jobs = effective_jobs();
  // One pool + one cache across the whole grid: cells are pool tasks that
  // fork-join their cores onto the same pool.
  ThreadPool pool(static_cast<unsigned>(report.jobs));
  DesignCache cache(lib, std::size_t{256} << 20);
  run_grid(
      pool, opts_, "soc-sweep", std::move(jobs),
      [&pool, &cache](const SocSweepJob& job) {
        return SocRunner(job.options).run(pool, cache);
      },
      [](const SocSweepJob& job, const SocResult& result) {
        return CellLedgerLine{cell_config(job), soc_result_to_json_value(result)};
      },
      report);
  return report;
}

std::string SocSweepReport::to_json() const {
  std::vector<std::string> entries;
  for (const SocSweepCellResult& cell : cells) {
    const SocResult& r = cell.result;
    std::string out = "{\"name\": \"" + cell.job.label + "\", ";
    out += "\"run_type\": \"iteration\", \"iterations\": 1, ";
    out += "\"real_time\": " + report_number(cell.wall_ms) + ", ";
    out += "\"time_unit\": \"ms\", ";
    out += "\"cores\": " + std::to_string(r.cores) + ", ";
    out += "\"tam_width\": " + std::to_string(r.tam_width) + ", ";
    out += "\"tp_percent\": " + report_number(cell.job.options.flow.tp_percent) + ", ";
    out += "\"schedule\": \"" + std::string(soc_schedule_name(r.schedule)) + "\", ";
    out += "\"chip_tat_cycles\": " + std::to_string(r.chip_tat_cycles) + ", ";
    out += "\"serial_tat_cycles\": " + std::to_string(r.serial_tat_cycles) + ", ";
    out += "\"tam_utilization_pct\": " + report_number(r.tam_utilization_pct) + "}";
    entries.push_back(std::move(out));
  }
  return json_frame(cells.size(), entries);
}

bool SocSweepReport::write_json(const std::string& path) const {
  return write_file(to_json(), path, "SocSweepReport");
}

}  // namespace tpi
