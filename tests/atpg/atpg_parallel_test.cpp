// Parallel-vs-serial equivalence of ATPG: run_atpg must produce a
// bit-identical AtpgResult for any AtpgOptions::jobs (speculative PODEM
// results are committed in target order; FaultSimBank partitions
// deterministically and merges in fault-list order). Runs at jobs ∈ {1, 2,
// 4, hardware} on two generated circuit profiles, and nested: concurrent
// runs on every worker of a shared pool. Carries the "smoke" ctest label
// so a -DTPI_SANITIZE=thread build doubles as a data-race check of both
// parallel paths.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <string>
#include <thread>
#include <vector>

#include "../common/test_circuits.hpp"
#include "../common/watchdog.hpp"
#include "atpg/atpg.hpp"
#include "circuits/generator.hpp"
#include "netlist/design_db.hpp"
#include "scan/scan.hpp"
#include "tpi/tpi.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace tpi {
namespace {

using test::lib;

// The result plus the deterministic registry snapshot (every atpg.*
// counter run_atpg records, without the runtime gauges).
struct AtpgRun {
  AtpgResult result;
  std::string counters;
  int jobs = 0;            ///< fan-out width (the rt.atpg.jobs gauge)
  double discarded = 0.0;  ///< rt.atpg.podem_discarded
  double faults_graded = 0.0;  ///< atpg.sim.faults_graded
};

AtpgRun run_with_jobs(const CircuitProfile& profile, int jobs, int test_points = 0) {
  auto nl = generate_circuit(lib(), profile);
  if (test_points > 0) {
    TpiOptions to;
    to.num_test_points = test_points;
    DesignDB db(*nl);
    insert_test_points(db, to);
  }
  ScanOptions so;
  so.max_chain_length = 16;
  insert_scan(*nl, so);
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  AtpgOptions opts;
  opts.jobs = jobs;
  AtpgRun run;
  MetricsRegistry registry;
  {
    ScopedMetricsRegistry scope(registry);
    run.result = run_atpg(model, t, opts);
  }
  const MetricsSnapshot snap = registry.snapshot();
  run.counters = snap.to_json(MetricsSnapshot::kNoRuntime);
  run.jobs = static_cast<int>(snap.number("rt.atpg.jobs"));
  run.discarded = snap.number("rt.atpg.podem_discarded");
  run.faults_graded = snap.number("atpg.sim.faults_graded");
  return run;
}

void expect_bit_identical(const AtpgRun& ra, const AtpgRun& rb) {
  const AtpgResult& a = ra.result;
  const AtpgResult& b = rb.result;
  // Patterns: count and every bit.
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (std::size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i], b.patterns[i]) << "pattern " << i;
  }
  // Per-fault statuses.
  ASSERT_EQ(a.faults.faults.size(), b.faults.faults.size());
  for (std::size_t i = 0; i < a.faults.faults.size(); ++i) {
    EXPECT_EQ(a.faults.faults[i].status, b.faults.faults[i].status) << "fault " << i;
  }
  // Aggregate metrics (exact, not approximate: same arithmetic, same order).
  EXPECT_EQ(a.total_faults, b.total_faults);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.scan_tested, b.scan_tested);
  EXPECT_EQ(a.redundant, b.redundant);
  EXPECT_EQ(a.aborted, b.aborted);
  EXPECT_EQ(a.fault_coverage_pct, b.fault_coverage_pct);
  EXPECT_EQ(a.fault_efficiency_pct, b.fault_efficiency_pct);
  EXPECT_EQ(a.patterns_before_compaction, b.patterns_before_compaction);
  EXPECT_EQ(a.podem_calls, b.podem_calls);
  EXPECT_EQ(a.podem_aborts, b.podem_aborts);
  EXPECT_EQ(a.podem_backtracks, b.podem_backtracks);
  // Every deterministic atpg.* counter, the fault-sim kernel's included
  // (each fault is graded exactly once; only the rt.* gauges may differ).
  EXPECT_EQ(ra.counters, rb.counters);
}

TEST(AtpgParallelTest, BitIdenticalAcrossJobCountsOnTinyProfile) {
  const AtpgRun serial = run_with_jobs(test::tiny_profile(11), 1);
  const AtpgRun two = run_with_jobs(test::tiny_profile(11), 2);
  const AtpgRun hw = run_with_jobs(test::tiny_profile(11), 0);  // hardware
  EXPECT_EQ(serial.jobs, 1);
  EXPECT_EQ(two.jobs, 2);
  EXPECT_GE(hw.jobs, 1);
  expect_bit_identical(serial, two);
  expect_bit_identical(serial, hw);
}

// Gated hard blocks + test points, the shape that makes the paper's
// Table 1 interesting — and drives PODEM + compaction harder.
CircuitProfile hard_block_profile() {
  CircuitProfile p = test::tiny_profile(7);
  p.num_comb_gates = 900;
  p.num_ffs = 60;
  p.num_hard_blocks = 4;
  p.hard_block_width = 10;
  p.hard_classes_per_block = 12;
  p.hard_mode_bits = 5;
  return p;
}

TEST(AtpgParallelTest, BitIdenticalOnHardBlockProfileWithTestPoints) {
  const CircuitProfile p = hard_block_profile();
  const AtpgRun serial = run_with_jobs(p, 1, 4);
  // The window commits every PODEM outcome here, not just tests.
  EXPECT_GT(serial.result.podem_aborts, 0);
  EXPECT_GT(serial.result.redundant, 0);
  EXPECT_GT(serial.result.num_patterns(), 0);
  EXPECT_GT(serial.faults_graded, 0.0);
  for (const int jobs : {2, 4, 0}) {  // 0 = hardware
    SCOPED_TRACE(jobs);
    const AtpgRun parallel = run_with_jobs(p, jobs, 4);
    expect_bit_identical(serial, parallel);
    if (jobs != 4) continue;
    // With four workers' window in flight, some targets are detected by
    // the fault simulation of an earlier batch before they are committed,
    // and their results are thrown away.
    EXPECT_GT(parallel.discarded, 0.0);
  }
}

// Nested ATPG: every worker of the pool runs run_atpg at jobs = 4 at the
// same time, so each run grades and speculates on a pool whose workers are
// all committers of some run. The join rule must keep that from
// deadlocking (the watchdog fails a hang), and each run must still equal
// the off-pool serial run bit for bit.
TEST(AtpgParallelTest, ConcurrentRunsOnEveryPoolWorkerMatchSerial) {
  const CircuitProfile p = hard_block_profile();
  const AtpgRun serial = run_with_jobs(p, 1, 4);
  for (const unsigned workers : {1u, 2u}) {
    SCOPED_TRACE(workers);
    std::vector<AtpgRun> runs;
    test::run_with_watchdog([&] {
      ThreadPool pool(workers);
      std::atomic<unsigned> arrived{0};
      runs = pool.fork_join(workers, [&](std::size_t) {
        // Start together: no worker may finish its run before the others
        // have begun theirs.
        ++arrived;
        while (arrived.load() < workers) std::this_thread::yield();
        return run_with_jobs(p, 4, 4);
      });
    });
    ASSERT_EQ(runs.size(), workers);
    for (const AtpgRun& run : runs) {
      EXPECT_EQ(run.jobs, 4);
      expect_bit_identical(serial, run);
    }
  }
}

TEST(AtpgParallelTest, BankGradeMatchesPerFaultDetects) {
  auto nl = generate_circuit(lib(), test::tiny_profile(31));
  ScanOptions so;
  so.max_chain_length = 10;
  insert_scan(*nl, so);
  CombModel model(*nl, SeqView::kCapture);
  FaultList fl = build_fault_list(model);
  std::vector<Fault*> faults;
  for (Fault& f : fl.faults) faults.push_back(&f);

  Rng rng(9);
  std::vector<Word> words(model.input_nets().size());
  for (auto& w : words) w = rng.next_u64();

  FaultSimulator serial(model);
  serial.load_batch(words);
  std::vector<Word> expected;
  for (Fault* f : faults) expected.push_back(serial.detects(*f));

  for (const int jobs : {1, 2, 3}) {
    ThreadPool pool(static_cast<unsigned>(jobs));
    FaultSimBank bank(model, &pool, jobs);
    bank.load_batch(words);
    std::vector<Word> got;
    bank.grade(faults, got);
    EXPECT_EQ(got, expected) << "jobs=" << jobs;
    const FaultSimStats s = bank.take_stats();
    EXPECT_EQ(s.faults_graded, faults.size());
  }
}

TEST(AtpgParallelTest, FirstDetectionsGradesRedundantAndAbortedFaults) {
  auto nl = test::make_small_comb();
  CombModel model(*nl, SeqView::kCapture);
  ThreadPool pool(2);
  FaultSimBank bank(model, &pool, 2);
  // Exhaustive batch over the 3 inputs.
  std::vector<Word> words(3, 0);
  for (int row = 0; row < 8; ++row) {
    for (int i = 0; i < 3; ++i) {
      if (row & (1 << i)) words[static_cast<std::size_t>(i)] |= Word{1} << row;
    }
  }
  bank.load_batch(words);

  Fault detectable;
  detectable.net = nl->find_net("y");
  Fault redundant_like = detectable;  // same site, pre-marked redundant
  redundant_like.status = FaultStatus::kRedundant;
  redundant_like.stuck1 = true;
  Fault aborted_like = detectable;  // same site, pre-marked aborted
  aborted_like.status = FaultStatus::kAborted;
  std::vector<Fault*> live{&detectable, &redundant_like, &aborted_like};
  std::vector<std::size_t> first;
  bank.first_detections(live, 8, first);

  // Grading ignores the PODEM verdicts: every fault gets its first
  // detector in the exhaustive batch, the evidence run_atpg's drop loop
  // turns into kDetected over a kRedundant or kAborted claim.
  FaultSimulator serial(model);
  serial.load_batch(words);
  ASSERT_EQ(first.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const Word d = serial.detects(*live[i]) & 0xFF;
    ASSERT_NE(d, Word{0});
    EXPECT_EQ(first[i], static_cast<std::size_t>(std::countr_zero(d))) << i;
  }
  EXPECT_EQ(redundant_like.status, FaultStatus::kRedundant);
  EXPECT_EQ(aborted_like.status, FaultStatus::kAborted);
}

}  // namespace
}  // namespace tpi
