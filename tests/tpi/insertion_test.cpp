#include "tpi/tpi.hpp"

#include <gtest/gtest.h>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"
#include "netlist/design_db.hpp"
#include "sim/seq_sim.hpp"
#include "util/rng.hpp"

namespace tpi {
namespace {

using test::lib;

TEST(TpiInsertionTest, InsertsRequestedCount) {
  auto nl = generate_circuit(lib(), test::tiny_profile(11));
  TpiOptions opts;
  opts.num_test_points = 5;
  DesignDB db(*nl);
  const TpiReport report = insert_test_points(db, opts);
  EXPECT_EQ(report.test_points.size(), 5u);
  EXPECT_EQ(nl->test_points().size(), 5u);
  EXPECT_TRUE(nl->validate().empty()) << nl->validate();
}

TEST(TpiInsertionTest, ZeroIsNoOp) {
  auto nl = generate_circuit(lib(), test::tiny_profile(11));
  const std::size_t cells = nl->num_cells();
  TpiOptions opts;
  opts.num_test_points = 0;
  DesignDB db(*nl);
  insert_test_points(db, opts);
  EXPECT_EQ(nl->num_cells(), cells);
}

TEST(TpiInsertionTest, TestPointsFullyConnected) {
  auto nl = generate_circuit(lib(), test::tiny_profile(12));
  TpiOptions opts;
  opts.num_test_points = 4;
  DesignDB db(*nl);
  const TpiReport report = insert_test_points(db, opts);
  for (const CellId tp : report.test_points) {
    const CellInst& inst = nl->cell(tp);
    const CellSpec* spec = inst.spec;
    EXPECT_EQ(spec->func, CellFunc::kTsff);
    EXPECT_NE(inst.conn[static_cast<std::size_t>(spec->d_pin)], kNoNet);
    EXPECT_NE(inst.conn[static_cast<std::size_t>(spec->te_pin)], kNoNet);
    EXPECT_NE(inst.conn[static_cast<std::size_t>(spec->tr_pin)], kNoNet);
    EXPECT_NE(inst.conn[static_cast<std::size_t>(spec->clock_pin)], kNoNet);
    EXPECT_NE(inst.output_net(), kNoNet);
    // TI stays open for the scan stitcher.
    EXPECT_EQ(inst.conn[static_cast<std::size_t>(spec->ti_pin)], kNoNet);
    // Clock assignment found a real clock domain (§3.1 step 2).
    EXPECT_TRUE(
        nl->is_clock_net(inst.conn[static_cast<std::size_t>(spec->clock_pin)]));
  }
}

TEST(TpiInsertionTest, ApplicationModeBehaviourPreserved) {
  // The key DfT invariant: with TE=TR=0 the circuit computes the same
  // function after TPI (test points are transparent).
  const CircuitProfile p = test::tiny_profile(13);
  auto golden = generate_circuit(lib(), p);
  auto modified = generate_circuit(lib(), p);
  TpiOptions opts;
  opts.num_test_points = 6;
  DesignDB db(*modified);
  insert_test_points(db, opts);

  SequentialSim ref(*golden);
  SequentialSim dut(*modified);
  ASSERT_EQ(ref.num_state_bits(), dut.num_state_bits());  // TSFFs transparent

  Rng rng(2024);
  const std::size_t ref_pis = ref.model().num_pi_inputs();
  const std::size_t dut_pis = dut.model().num_pi_inputs();
  ASSERT_EQ(dut_pis, ref_pis + 2);  // + tp_te, tp_tr control inputs
  for (int cycle = 0; cycle < 12; ++cycle) {
    std::vector<Word> stim(ref_pis);
    for (auto& w : stim) w = rng.next_u64();
    std::vector<Word> dut_stim = stim;
    dut_stim.push_back(0);  // tp_te = 0
    dut_stim.push_back(0);  // tp_tr = 0 -> application mode
    std::vector<Word> ref_po, dut_po;
    ref.step(stim, ref_po);
    dut.step(dut_stim, dut_po);
    ASSERT_GE(dut_po.size(), ref_po.size());
    for (std::size_t i = 0; i < ref_po.size(); ++i) {
      ASSERT_EQ(dut_po[i], ref_po[i]) << "PO " << i << " differs in cycle " << cycle;
    }
  }
}

TEST(TpiInsertionTest, ExcludedNetsAreRespected) {
  const CircuitProfile p = test::tiny_profile(14);
  auto probe = generate_circuit(lib(), p);
  TpiOptions opts;
  opts.num_test_points = 3;
  DesignDB probe_db(*probe);
  const TpiReport first = insert_test_points(probe_db, opts);
  ASSERT_EQ(first.sites.size(), 3u);

  // Re-run on a fresh copy with the first choice excluded.
  auto nl = generate_circuit(lib(), p);
  opts.excluded_nets = {first.sites.begin(), first.sites.end()};
  DesignDB db(*nl);
  const TpiReport second = insert_test_points(db, opts);
  for (const NetId site : second.sites) {
    EXPECT_FALSE(opts.excluded_nets.contains(site));
  }
}

TEST(TpiInsertionTest, HybridTargetsHardEnableNets) {
  // Build a profile where one rare wide-AND enable gates many classes; the
  // gain-driven hybrid method must put the first test point on an enable
  // (high fanout, tiny signal probability), not on a trunk-internal node.
  CircuitProfile p = test::tiny_profile(15);
  p.num_comb_gates = 800;
  p.num_hard_blocks = 2;
  p.hard_block_width = 12;
  p.hard_classes_per_block = 10;
  p.hard_mode_bits = 4;
  auto nl = generate_circuit(lib(), p);
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  const auto ranked = rank_tpi_candidates(*nl, t, model, TpiMethod::kHybrid, {}, 2);
  ASSERT_FALSE(ranked.empty());
  const Net& site = nl->net(ranked.front());
  EXPECT_GE(site.fanout(), 8u) << "expected a gated-region enable";
  EXPECT_LT(t.p1[static_cast<std::size_t>(ranked.front())], 0.05f);
}

TEST(TpiInsertionTest, MethodsProduceDifferentRankings) {
  auto nl = generate_circuit(lib(), test::tiny_profile(16));
  CombModel model(*nl, SeqView::kCapture);
  const TestabilityResult t = analyze_testability(model);
  const auto hybrid = rank_tpi_candidates(*nl, t, model, TpiMethod::kHybrid, {}, 8);
  const auto cop = rank_tpi_candidates(*nl, t, model, TpiMethod::kCop, {}, 8);
  const auto scoap = rank_tpi_candidates(*nl, t, model, TpiMethod::kScoap, {}, 8);
  EXPECT_FALSE(hybrid.empty());
  EXPECT_FALSE(cop.empty());
  EXPECT_FALSE(scoap.empty());
  EXPECT_TRUE(hybrid != cop || cop != scoap);
}

TEST(TpiInsertionTest, InsertionImprovesTestability) {
  auto nl = generate_circuit(lib(), test::tiny_profile(17));
  CombModel before_model(*nl, SeqView::kCapture);
  const TestabilityResult before = analyze_testability(before_model);
  double worst_before = 1.0;
  for (std::size_t n = 0; n < nl->num_nets(); ++n) {
    if (nl->is_clock_net(static_cast<NetId>(n))) continue;
    const Net& net = nl->net(static_cast<NetId>(n));
    if (!net.driver.valid() && !net.driven_by_pi()) continue;
    worst_before = std::min(worst_before,
                            static_cast<double>(before.detect_prob_min(static_cast<NetId>(n))));
  }
  TpiOptions opts;
  opts.num_test_points = 4;
  DesignDB db(*nl);
  insert_test_points(db, opts);
  CombModel after_model(*nl, SeqView::kCapture);
  const TestabilityResult after = analyze_testability(after_model);
  // Average hardness (in probability bits) must improve on hard nets.
  double sum_before = 0, sum_after = 0;
  int count = 0;
  for (std::size_t n = 0; n < before.p1.size(); ++n) {
    const NetId net = static_cast<NetId>(n);
    if (nl->is_clock_net(net)) continue;
    const Net& netr = nl->net(net);
    if (!netr.driver.valid() && !netr.driven_by_pi()) continue;
    if (before.detect_prob_min(net) < 1e-3f) {
      sum_before += before.detect_prob_min(net);
      sum_after += after.detect_prob_min(net);
      ++count;
    }
  }
  if (count > 0) {
    EXPECT_GT(sum_after, sum_before);
  }
}

}  // namespace
}  // namespace tpi
