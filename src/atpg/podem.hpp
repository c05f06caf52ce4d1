// PODEM (path-oriented decision making) deterministic test generation.
//
// Classic Goel algorithm over the capture-view combinational model with a
// composite good/faulty 3-valued simulation: decisions are made only on
// controllable inputs (PIs and scan-cell outputs), objectives are derived
// from fault activation and D-frontier propagation, and backtrace is guided
// by SCOAP controllability/observability. Faults whose decision tree is
// exhausted are proven redundant (they count toward fault efficiency);
// faults hitting the backtrack limit are aborted.
#pragma once

#include <cstdint>
#include <vector>

#include "atpg/fault.hpp"
#include "sim/ternary.hpp"
#include "testability/testability.hpp"

namespace tpi {

struct PodemOptions {
  int backtrack_limit = 80;
  std::int64_t implication_limit = 2'000'000;  ///< per fault, safety net
  bool trace = false;  ///< stderr decision/backtrack trace (debugging)
};

/// PODEM's implication event queue: a set of node indices that always
/// pops the smallest one. One bit per node plus one summary bit per
/// non-empty 64-node word, scanned from a low-water cursor; pushing a
/// queued node is a no-op. Popping the minimum keeps the evaluation order
/// of a min-heap exactly, on cyclic views too (a push below the cursor
/// lowers it), so trails, D-frontiers and cubes do not depend on it.
class NodeQueue {
 public:
  /// Empty queue over node indices [0, nodes).
  void resize(std::size_t nodes);
  void push(int node);
  /// Smallest queued node, removed from the set; -1 when empty.
  int pop();
  void clear();

 private:
  std::vector<std::uint64_t> bits_;     ///< bit i%64 of word i/64: node i queued
  std::vector<std::uint64_t> summary_;  ///< bit w%64 of word w/64: bits_[w] != 0
  std::size_t low_ = 0;                 ///< no summary word below it is non-zero
};

enum class PodemOutcome { kTest, kRedundant, kAborted };

struct PodemResult {
  PodemOutcome outcome = PodemOutcome::kAborted;
  /// Test cube aligned with model.input_nets(); kX entries are don't-care.
  std::vector<Tern> cube;
  int backtracks = 0;
};

class Podem {
 public:
  Podem(const CombModel& model, const TestabilityResult& scoap, PodemOptions opts = {});

  /// A pure function of (model, testability, options, fault): the result
  /// does not depend on earlier calls, so any instance may serve any fault
  /// in any order (parallel ATPG relies on this).
  PodemResult generate(const Fault& fault);
  /// Same, into a caller-owned result whose cube capacity is reused: with
  /// `out.cube` reserved to the input count the call does not allocate.
  void generate(const Fault& fault, PodemResult& out);

 private:
  struct Decision {
    std::size_t input_index;  ///< into model.input_nets()
    Tern value;
    bool flipped = false;
    std::size_t trail_mark;
  };

  void reset_state();
  bool assign_and_imply(NetId net, Tern value);
  void eval_node(int node_index);
  void set_net(NetId net, Tern g, Tern f);
  void rebuild_d_frontier();
  template <typename Fn>
  bool for_each_propagation_objective(int node_index, Fn&& try_objective);
  bool find_decision(NetId* in_net, Tern* in_val);
  bool backtrace(NetId obj_net, Tern obj_val, NetId* input_net, Tern* input_val);
  int pick_d_frontier();

  const CombModel& model_;
  const TestabilityResult& scoap_;
  PodemOptions opts_;
  const Fault* fault_ = nullptr;
  int branch_reader_ = -1;
  bool direct_branch_capture_ = false;  ///< branch fault straight into a FF D pin

  std::vector<Tern> vg_, vf_;
  /// Undo log: every value change is recorded (a net's composite value can
  /// change more than once — (X,X) → (1,X) → (1,1) — across decision
  /// levels, so "reset to X on undo" would corrupt the shallower state).
  struct TrailEntry {
    NetId net;
    Tern old_g, old_f;
  };
  std::vector<TrailEntry> trail_;
  std::vector<int> d_frontier_;  ///< candidate node indices (lazily filtered)
  NodeQueue queue_;  ///< implication events, popped in node order
  std::vector<char> is_input_;  ///< per net: controllable input
  std::vector<std::size_t> input_index_;  ///< net -> index into input_nets
  std::vector<char> observed_;
  std::vector<Decision> decisions_;  ///< decision stack of the current call
  /// D-frontier candidates of find_decision(), sorted by (CO, position).
  struct Candidate {
    float co;
    std::uint32_t pos;
    int node;
  };
  std::vector<Candidate> candidates_;
  bool detected_ = false;
  bool truncated_ = false;  ///< search shortcuts taken: exhaustion != proof
  std::int64_t implications_ = 0;
};

}  // namespace tpi
