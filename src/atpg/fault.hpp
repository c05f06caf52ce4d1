// Pluggable fault models with equivalence collapsing.
//
// The fault universe follows industrial practice (and the paper's Table 1
// "#faults" column): two faults per connected cell pin, plus two per
// primary input. Faults on scan infrastructure (TI/TE/TR pins, clock
// pins and pure scan-routing nets) are classified as tested by the scan
// shift/flush tests rather than by ATPG patterns — this is why the paper's
// fault coverage *rises* slightly with TPI: test points add easy faults.
//
// Two models share that universe:
//
//  * kStuckAt — the paper's model: a net permanently holds 0/1.
//  * kTransition — gross-delay faults under launch-on-capture: stuck1 =
//    false is slow-to-rise (the net fails to make its 0→1 transition by
//    the capture edge), stuck1 = true is slow-to-fall. A transition fault
//    behaves as the corresponding stuck-at fault in the *capture* frame,
//    conditioned on the opposite value in the *launch* frame — which is
//    exactly how the two-cycle fault simulation grades it.
//
// Collapsing differs per model: stuck-at folds through buffers, inverters
// and controlling values of AND/NAND/OR/NOR; transition faults only fold
// through buffers and inverters (a controlling input value blocks the
// gate, but an input *transition* is not equivalent to an output
// transition, so the controlling-value folds are invalid).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "sim/comb_model.hpp"

namespace tpi {

enum class FaultModel : std::uint8_t {
  kStuckAt,     ///< single stuck-at (the paper's model; the default)
  kTransition,  ///< transition delay under launch-on-capture
};

/// Canonical "stuck_at" | "transition" spelling (FlowConfig JSON / env).
const char* fault_model_name(FaultModel model);
/// Inverse of fault_model_name; nullopt for unknown spellings.
std::optional<FaultModel> fault_model_from_name(std::string_view name);

enum class FaultStatus : std::uint8_t {
  kUndetected,
  kDetected,    ///< detected by an ATPG pattern
  kScanTested,  ///< covered by scan shift / flush tests
  kRedundant,   ///< proven untestable by PODEM
  kAborted,     ///< PODEM gave up (backtrack limit)
};

struct Fault {
  NetId net = kNoNet;   ///< fault site
  PinRef branch;        ///< specific sink pin; invalid = stem (driver side)
  /// kStuckAt: true = stuck-at-1. kTransition: true = slow-to-fall (the
  /// capture-frame equivalent stuck value is the same bit either way).
  bool stuck1 : 1 = false;
  FaultModel model : 7 = FaultModel::kStuckAt;
  FaultStatus status = FaultStatus::kUndetected;
  /// Number of uncollapsed faults this representative stands for (>= 1);
  /// build_fault_list never folds a class past kMaxEquivCount.
  std::uint16_t equiv_count = 1;

  static constexpr int kMaxEquivCount = 0xFFFF;

  bool is_stem() const { return !branch.valid(); }
};
// Fault lists are the largest per-flow array a retained ATPG result keeps.
static_assert(sizeof(Fault) == 16);

struct FaultList {
  std::vector<Fault> faults;           ///< collapsed representatives
  std::int64_t total_uncollapsed = 0;  ///< full universe size (Table 1 "#faults")

  std::int64_t count_equiv(FaultStatus s) const {
    std::int64_t n = 0;
    for (const Fault& f : faults) {
      if (f.status == s) n += f.equiv_count;
    }
    return n;
  }
  std::size_t count(FaultStatus s) const {
    std::size_t n = 0;
    for (const Fault& f : faults) n += (f.status == s);
    return n;
  }
};

/// Build the collapsed fault list for the capture-view model. The default
/// is the stuck-at universe; kTransition builds the same sites with the
/// transition-only (buffer/inverter) collapsing and every Fault::model set.
FaultList build_fault_list(const CombModel& model);
FaultList build_fault_list(const CombModel& model, FaultModel fault_model);

}  // namespace tpi
