// Compact ATPG driver: random bootstrap + PODEM with random fill and
// dynamic fault dropping + reverse-order static compaction.
//
// This mirrors the Philips CAT flow the paper uses (Geuzebroek et al.,
// ITC'00/'02): compact stuck-at pattern sets for scan-based external test.
// The Table 1 metrics fall out of the result: pattern count, fault
// coverage FC, fault efficiency FE, and — combined with the scan-chain
// configuration — test data volume (eq. 1) and test application time
// (eq. 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "atpg/fault.hpp"
#include "atpg/fault_sim.hpp"
#include "atpg/podem.hpp"

namespace tpi {

struct AtpgOptions {
  std::uint64_t seed = 0xA7961;
  /// Fault model to target. kStuckAt (the default) keeps the seed's
  /// behavior bit-for-bit; kTransition grades launch-on-capture pattern
  /// pairs (the stored pattern is the launch frame, PIs held across both
  /// cycles, pseudo-inputs fed from the launch frame's captured state).
  FaultModel fault_model = FaultModel::kStuckAt;
  PodemOptions podem;
  /// Pure-random warm-up batches of 64 patterns (dropped again by static
  /// compaction when useless).
  int random_batches = 10;
  /// Stop the random warm-up early when a batch detects fewer equivalent
  /// faults than this.
  int random_min_yield = 8;
  bool static_compaction = true;
  int max_patterns = 200000;
  /// Fan-out width of PODEM speculation and fault-simulation chunks on the
  /// pool the caller runs on (a sweep cell's, a server job's, an SOC
  /// core's), not a thread count: 1 = serial, <= 0 = that pool's size. A
  /// caller on no pool gets a pool of `jobs` workers (<= 0: hardware
  /// concurrency) for the run. The AtpgResult is bit-identical for any value.
  int jobs = 1;
};

/// One scan-test pattern: values for every controllable input (PIs and
/// scan-cell states), aligned with CombModel::input_nets(). Bits are packed
/// 64 to a word (input i is bit i%64 of words[i/64]); a flow keeps every
/// pattern of every ATPG run, so one byte per bit would be 8x the memory.
class TestPattern {
 public:
  explicit TestPattern(std::size_t num_inputs = 0)
      : words_((num_inputs + 63) / 64, 0), size_(num_inputs) {}

  std::size_t size() const { return size_; }
  bool get(std::size_t i) const { return (words_[i / 64] >> (i % 64)) & 1u; }
  void set(std::size_t i, bool v) {
    const std::uint64_t m = std::uint64_t{1} << (i % 64);
    words_[i / 64] = v ? words_[i / 64] | m : words_[i / 64] & ~m;
  }

  bool operator==(const TestPattern&) const = default;

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_;
};

struct AtpgResult {
  FaultModel fault_model = FaultModel::kStuckAt;  ///< model this run targeted
  FaultList faults;  ///< final per-fault statuses
  /// For kStuckAt: one capture cycle per pattern. For kTransition: each
  /// pattern is the launch frame of a launch-on-capture pair.
  std::vector<TestPattern> patterns;

  std::int64_t total_faults = 0;  ///< uncollapsed universe (Table 1 #faults)
  std::int64_t detected = 0;      ///< equivalent faults detected by patterns
  std::int64_t scan_tested = 0;
  std::int64_t redundant = 0;
  std::int64_t aborted = 0;

  double fault_coverage_pct = 0.0;    ///< FC = (detected+scan)/total
  double fault_efficiency_pct = 0.0;  ///< FE = (detected+scan+redundant)/total
  int patterns_before_compaction = 0;
  int podem_calls = 0;
  int podem_aborts = 0;
  std::int64_t podem_backtracks = 0;  ///< summed over all PODEM calls

  int num_patterns() const { return static_cast<int>(patterns.size()); }
};

/// Runs the three phases. The active MetricsRegistry is the single source
/// of ATPG counters: the deterministic atpg.patterns, atpg.podem.{calls,
/// aborts,backtracks} and atpg.sim.{batches,faults_graded,cone_skips,
/// node_evals,events} (identical for any opts.jobs), and the runtime gauges
/// rt.atpg.{random,podem,compaction}_ms (phase wall clock) and rt.atpg.jobs
/// (fan-out width). Each phase is also a trace span: "atpg.random",
/// "atpg.podem", "atpg.static_compaction".
AtpgResult run_atpg(const CombModel& model, const TestabilityResult& testability,
                    const AtpgOptions& opts = {});

class DesignDB;

/// Same driver over the design database: pulls the capture-view CombModel
/// and testability from the DB cache (a rebuild only when the netlist was
/// edited since they were last built).
AtpgResult run_atpg(DesignDB& db, const AtpgOptions& opts = {});

/// Test data volume in scan bits, eq. (1): TDV = 2n((l_max+1)p + l_max).
std::int64_t test_data_volume(int num_chains, int max_chain_length, int num_patterns);

/// Test application time in clock cycles, eq. (2): TAT = (l_max+1)p + l_max.
std::int64_t test_application_time(int max_chain_length, int num_patterns);

/// Generalized eq. (2) for multi-cycle capture: TAT = (l_max+c)p + l_max
/// with c capture cycles per pattern (c = 2 for launch-on-capture
/// transition test; c = 1 reproduces the paper's formula).
std::int64_t test_application_time(int max_chain_length, int num_patterns, int capture_cycles);

}  // namespace tpi
