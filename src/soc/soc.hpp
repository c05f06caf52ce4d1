// SOC-scale workloads (DESIGN.md §16): compose a chip from N embedded
// cores drawn from the paper's profile set, run the full single-core flow
// per core, wrap each core onto the chip's Test Access Mechanism
// (wrapper.hpp) and schedule the per-core tests with rectangle bin
// packing (packing.hpp) into one chip-level test application time.
//
// Determinism contract: every per-core flow is bit-deterministic (same
// seeds, same profile), the cores are merged in core order on the caller
// thread, and the wrapper/packer layer is serial integer arithmetic — so
// soc_result_to_json() is byte-identical at any TPI_BENCH_JOBS /
// TPI_ATPG_JOBS and across SIMD backends.
//
// Concurrency: SocRunner::run fans the per-core flows onto the caller's
// ThreadPool with fork_join, so it may be called from a worker of that
// same pool (a SOC sweep cell, a flow-server job): the joining worker
// itself runs every core no other worker has claimed, so nesting cannot
// deadlock.
#pragma once

#include <atomic>
#include <string>
#include <vector>

#include "circuits/design_cache.hpp"
#include "circuits/profiles.hpp"
#include "flow/flow.hpp"
#include "soc/packing.hpp"
#include "soc/wrapper.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace tpi {

struct FlowConfig;  // flow/flow_config.hpp

/// One embedded core: a paper profile (possibly scaled) plus its chip-level
/// instance label ("core3:circuit1").
struct SocCoreSpec {
  std::string label;
  CircuitProfile profile;
};

/// The deterministic chip composition for `cores` embedded cores: core i
/// instantiates paper profile i % 3 at size ladder {1, 0.7, 0.5}[(i/3) % 3]
/// x `scale`. Repeats share a DesignCache entry, so an N-core chip
/// generates at most 9 distinct designs.
std::vector<SocCoreSpec> soc_core_specs(int cores, double scale);

struct SocOptions {
  int cores = 8;
  int tam_width = 32;
  SocScheduleMethod schedule = SocScheduleMethod::kDiagonal;
  double scale = 1.0;            ///< uniform core size factor (TPI_BENCH_SCALE)
  FlowOptions flow;              ///< per-core flow options (tp_percent, seeds, ...)
  StageMask stages = StageMask::all();
};

/// SocOptions from a unified FlowConfig (soc knobs + options + stages +
/// scale). config.soc.cores may be 0; callers gate SOC mode on that
/// before running.
SocOptions soc_options_from(const FlowConfig& config);

/// One core's slice of the chip result: envelope, chosen wrapper and
/// committed schedule slot, plus the full per-core flow result.
struct SocCoreResult {
  std::string label;
  std::string profile_name;
  int width = 1;                 ///< TAM lines assigned by the scheduler
  int tam_start = 0;
  std::int64_t start_cycle = 0;
  std::int64_t finish_cycle = 0;
  std::int64_t test_cycles = 0;  ///< T(width) for the chosen wrapper
  std::int64_t scan_in = 0;      ///< wrapper s_i at the chosen width
  std::int64_t scan_out = 0;     ///< wrapper s_o at the chosen width
  CoreTestEnvelope envelope;
  FlowResult flow;
};

struct SocResult {
  int cores = 0;
  int tam_width = 0;
  SocScheduleMethod schedule = SocScheduleMethod::kDiagonal;
  std::vector<SocCoreResult> per_core;      ///< in core order
  std::int64_t chip_tat_cycles = 0;         ///< scheduled makespan
  std::int64_t serial_tat_cycles = 0;       ///< full-width one-after-another baseline
  double tam_utilization_pct = 0.0;
  /// Per-core deterministic flow metrics merged in core order, plus the
  /// soc.* chip metrics (soc.chip_tat_cycles, soc.tam_utilization_pct, ...).
  MetricsSnapshot metrics;
  bool cancelled = false;
};

/// Deterministic JSON of a chip result: chip scalars, one compact object
/// per core (no nested flow JSON — ledger lines stay one-screen) and the
/// merged kNoRuntime metrics snapshot.
JsonValue soc_result_to_json_value(const SocResult& result);
std::string soc_result_to_json(const SocResult& result);

class SocRunner {
 public:
  explicit SocRunner(SocOptions opts);
  /// Runner from a unified FlowConfig via soc_options_from().
  explicit SocRunner(const FlowConfig& config);

  /// Run the chip: per-core flows fork-joined on `pool` (the caller may
  /// be one of its workers), designs checked out of `cache`, cancellation
  /// checked at every core's stage boundaries via `cancel` (nullptr =
  /// never). Results merge in core order regardless of scheduling.
  SocResult run(ThreadPool& pool, DesignCache& cache,
                const std::atomic<bool>* cancel = nullptr) const;

  const SocOptions& options() const { return opts_; }

 private:
  SocOptions opts_;
};

}  // namespace tpi
