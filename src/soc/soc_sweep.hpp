// Sweep runner for SOC-scale grids: cores x TAM width x tp_percent, each
// cell one full chip (SocRunner). Cells run in parallel through run_grid,
// the cell runner SweepRunner uses, on one ThreadPool that also runs every
// cell's per-core flows: a cell fork-joins its cores onto the pool it
// runs on. A shared DesignCache spans the grid: every cell re-instantiates
// the same scaled paper profiles, so later cells hit warm entries.
//
// Reporting mirrors SweepRunner: google-benchmark-style JSON with one
// entry per chip, per-cell flight-recorder traces under
// <trace_dir>/<sanitize_trace_label(label)>.trace.json (core spans
// included), and one ledger line per chip appended in grid order.
#pragma once

#include <string>
#include <vector>

#include "flow/sweep.hpp"
#include "soc/soc.hpp"

namespace tpi {

struct SocSweepJob {
  std::string label;  ///< report key, e.g. "soc=8/tam=32/tp=1"
  SocOptions options;
};

using SocSweepCellResult = GridCell<SocSweepJob, SocResult>;

struct SocSweepReport : GridReport<SocSweepJob, SocResult> {
  /// google-benchmark-style JSON: one "benchmarks" entry per chip carrying
  /// cores / tam_width / tp_percent / chip_tat_cycles / serial_tat_cycles /
  /// tam_utilization_pct. Everything except the context block and
  /// real_time is bit-identical at any job count and SIMD backend.
  std::string to_json() const;
  bool write_json(const std::string& path) const;
};

class SocSweepRunner : public GridRunner {
 public:
  using GridRunner::GridRunner;

  /// Run all cells, cells and their cores on one pool of effective_jobs()
  /// workers. A cell's exception propagates after every cell finished.
  SocSweepReport run(const CellLibrary& lib, std::vector<SocSweepJob> jobs) const;

  /// The SOC grid: every (cores, tam_width, tp_percent) triple in
  /// cores-major order with labels "soc=<n>/tam=<w>/tp=<pct>". Cells
  /// inherit soc_options_from(config) apart from cores, TAM width and TP.
  static std::vector<SocSweepJob> grid(const std::vector<int>& cores,
                                       const std::vector<int>& tam_widths,
                                       const std::vector<double>& tp_percents,
                                       const FlowConfig& config);
};

}  // namespace tpi
