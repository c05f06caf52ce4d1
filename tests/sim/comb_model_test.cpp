#include "sim/comb_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../common/test_circuits.hpp"
#include "circuits/generator.hpp"

namespace tpi {
namespace {

using test::lib;

// Reference fanout: every logic pin of every node, scanned the slow way.
std::vector<std::vector<int>> brute_force_readers(const CombModel& model) {
  std::vector<std::vector<int>> readers(model.num_nets());
  for (std::size_t i = 0; i < model.nodes().size(); ++i) {
    const CombNode& node = model.nodes()[i];
    const auto read = [&](NetId net) {
      if (net != kNoNet) readers[static_cast<std::size_t>(net)].push_back(static_cast<int>(i));
    };
    for (int k = 0; k < node.num_inputs; ++k) read(node.in[k]);
    read(node.sel);
  }
  return readers;
}

TEST(CombModelTest, ReadersOfIsAscendingAndMatchesANodeScan) {
  for (const SeqView view : {SeqView::kCapture, SeqView::kApplication}) {
    auto nl = generate_circuit(lib(), test::tiny_profile(11));
    CombModel model(*nl, view);
    const auto expected = brute_force_readers(model);
    std::size_t edges = 0;
    for (std::size_t n = 0; n < model.num_nets(); ++n) {
      const auto got = model.readers_of(static_cast<NetId>(n));
      EXPECT_TRUE(std::is_sorted(got.begin(), got.end())) << "net " << n;
      EXPECT_EQ(std::vector<int>(got.begin(), got.end()), expected[n]) << "net " << n;
      edges += got.size();
    }
    EXPECT_GT(edges, model.nodes().size());
  }
}

TEST(CombModelTest, PadToNetlistGivesNewNetsNoReaders) {
  auto nl = generate_circuit(lib(), test::tiny_profile(12));
  CombModel model(*nl, SeqView::kCapture);
  const std::size_t before = model.num_nets();
  const auto expected = brute_force_readers(model);
  nl->add_net("pad_a");
  nl->add_net("pad_b");
  model.pad_to_netlist();
  ASSERT_EQ(model.num_nets(), before + 2);
  for (std::size_t n = 0; n < before; ++n) {
    const auto got = model.readers_of(static_cast<NetId>(n));
    EXPECT_EQ(std::vector<int>(got.begin(), got.end()), expected[n]) << "net " << n;
  }
  EXPECT_TRUE(model.readers_of(static_cast<NetId>(before)).empty());
  EXPECT_TRUE(model.readers_of(static_cast<NetId>(before + 1)).empty());
  EXPECT_EQ(model.producer_of(static_cast<NetId>(before + 1)), -1);
  EXPECT_FALSE(model.net_reaches_observe(static_cast<NetId>(before + 1)));
}

}  // namespace
}  // namespace tpi
