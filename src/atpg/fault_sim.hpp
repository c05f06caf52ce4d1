// Event-driven, pattern-parallel fault simulation (stuck-at + transition).
//
// For each fault the simulator diverges a faulty-value overlay from the
// good-value state and propagates events in topological order through the
// fault's output cone only, comparing at observable nets. Two cone limits
// keep the hot loop tight: faults whose site cannot reach any observe net
// (CombModel::net_reaches_observe) are skipped outright, and events are
// never scheduled into nodes whose output lies outside every observe cone.
// Combined with fault dropping this is the workhorse of compact ATPG:
// every generated pattern (with random fill) is graded against all
// remaining faults.
//
// The hot loops live in the dispatched SIMD kernels (sim/kernels.hpp): a
// batch is lane_words() x 64 patterns wide, and each net visit grades all
// of them. The lane width is picked algorithmically by callers (1 for the
// legacy 64-pattern interface, up to kMaxLaneWords = 8 for super-batches),
// never from CPU capability, so detection words are bit-identical across
// kernel backends.
//
// FaultSimBank partitions a fault list across per-chunk FaultSimulator
// instances (shared read-only CombModel, per-chunk faulty-value scratch),
// forks the chunks onto the caller's pool and merges detection results in
// fault-list order, so the outcome is bit-identical to the serial path at
// any chunk count.
//
// Transition faults are graded over launch-on-capture pattern pairs loaded
// with load_batch_loc(): the launch frame V1 is simulated, the capture
// frame holds the PIs and feeds each pseudo-input from the launch frame's
// captured D value, and the kernels then grade the *capture* frame exactly
// as for stuck-at. The transition condition (the fault site held the
// launch value that makes the slow transition happen) is applied as a
// per-lane mask after the kernel: slow-to-rise requires launch value 0,
// slow-to-fall requires launch value 1. The kernels themselves are
// untouched, so backend bit-identity carries over.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "atpg/fault.hpp"
#include "sim/kernels.hpp"
#include "sim/parallel_sim.hpp"

namespace tpi {

class ThreadPool;

/// Index of the first (lowest-index) detecting pattern of a detection
/// word, -1 when no pattern detects: pattern k lives in bit k, so the first
/// detector is the least-significant set bit.
inline int first_detecting_pattern(Word detect) {
  return detect == 0 ? -1 : std::countr_zero(detect);
}

/// Valid-lane mask for lane word j of a batch holding `count` patterns:
/// lanes at or past `count` hold no pattern.
inline Word lane_mask(std::size_t count, std::size_t j) {
  const std::size_t base = j * kWordBits;
  if (count <= base) return 0;
  const std::size_t lanes = count - base;
  return lanes >= static_cast<std::size_t>(kWordBits) ? ~Word{0} : (Word{1} << lanes) - 1;
}

/// Resolve a fault against the model for the grading/forced kernels: find
/// the branch's logic reader, or classify it as a direct FF-D capture or a
/// dead branch. Shared by fault simulation and pattern replay.
FaultTask resolve_fault_task(const CombModel& model, const Fault& fault);

class FaultSimulator {
 public:
  explicit FaultSimulator(const CombModel& model);

  /// Words per net in the current batch layout (1..kMaxLaneWords).
  int lane_words() const { return good_.lane_words(); }
  /// Switch the batch width; resets the good state when it changes.
  void configure_lanes(int lane_words);

  /// Load the good-circuit state for a batch of lane_words() x 64 patterns
  /// (words input-major, aligned with model.input_nets(): word
  /// input_words[i*lane_words() + j] is input i, lane word j) and evaluate
  /// it. With lane_words() == 1 this is the legacy 64-pattern interface.
  void load_batch(const std::vector<Word>& input_words);

  /// Launch-on-capture batch for transition faults: simulate `input_words`
  /// as the launch frame V1, then build and simulate the capture frame
  /// (PIs held, pseudo-inputs fed from V1's captured D observes). After
  /// this call the good state is the capture frame and the launch frame's
  /// values are retained for the transition launch condition.
  void load_batch_loc(const std::vector<Word>& input_words);

  /// Adopt another simulator's good-circuit state (same model, same batch)
  /// without re-evaluating it — the parallel bank loads the batch once.
  /// Copies the launch frame too, if the source holds one.
  void copy_good_from(const FaultSimulator& other);

  /// Resolve a fault against the model for the grading kernels.
  FaultTask resolve(const Fault& fault) const;

  /// Word with bit k set iff pattern k of the current batch detects the
  /// fault (observable difference at a PO or pseudo-PO). Legacy single-word
  /// view: with lane_words() > 1 this is lane word 0 only.
  Word detects(const Fault& fault);

  /// All lane words of the detection result: out[0..lane_words()).
  void detects_wide(const Fault& fault, Word* out);

  /// Grade `count` faults: detect[i*lane_words() + j] is fault i's lane
  /// word j.
  void grade(const Fault* const* faults, std::size_t count, Word* detect);

  const ParallelSim& good() const { return good_; }

  const FaultSimStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  /// Per-lane-word transition launch mask for `fault` (slow-to-rise: site
  /// was 0 at launch; slow-to-fall: site was 1), ANDed into the kernel's
  /// capture-frame detect words. Zero when no launch frame is loaded — a
  /// transition fault cannot be detected by a single-frame batch.
  void apply_launch_mask(const Fault& fault, Word* detect) const;

  const CombModel* model_;
  ParallelSim good_;
  FaultScratch scratch_;
  std::vector<FaultTask> tasks_;  ///< reused per grade() call
  std::vector<Word> launch_values_;   ///< V1 net values (load_batch_loc)
  std::vector<Word> capture_inputs_;  ///< scratch for the capture frame
  bool has_launch_ = false;
  FaultSimStats stats_;
};

/// Deterministic parallel fault grading: the live fault list is split into
/// one contiguous chunk per simulator (chunk boundaries depend only on the
/// list length and jobs(), never on scheduling), each chunk is graded on
/// its own FaultSimulator as one fork of the pool, and the caller-visible
/// merge happens on the calling thread in fault-list order. Result:
/// bit-identical to the serial path for any `jobs`. The bank owns no
/// threads: its chunks run on the pool the caller runs on.
class FaultSimBank {
 public:
  /// `jobs` simulators, whose chunks grade() forks onto `pool` (null:
  /// grade serially). jobs <= 0 selects the pool's size (1 without one).
  FaultSimBank(const CombModel& model, ThreadPool* pool, int jobs);

  FaultSimBank(const FaultSimBank&) = delete;
  FaultSimBank& operator=(const FaultSimBank&) = delete;

  int jobs() const { return static_cast<int>(sims_.size()); }

  /// Words per net in the current batch layout.
  int lane_words() const { return sims_.front()->lane_words(); }
  /// Switch every worker's batch width.
  void configure_lanes(int lane_words);

  /// Load + evaluate the batch once (input-major wide layout, see
  /// FaultSimulator::load_batch), then copy the good state to every worker.
  void load_batch(const std::vector<Word>& input_words);

  /// Launch-on-capture variant (see FaultSimulator::load_batch_loc).
  void load_batch_loc(const std::vector<Word>& input_words);

  /// Grade every fault: detect[i*lane_words() + j] = fault i, lane word j.
  void grade(const std::vector<Fault*>& faults, std::vector<Word>& detect);

  /// Grade `faults` against the loaded batch of its first `count` patterns
  /// (count <= lane_words() * 64): first[i] is the index of the first
  /// pattern that detects faults[i], or `count` when none does. Lanes at or
  /// past `count` hold no pattern and are masked out. Statuses are neither
  /// read nor changed: the caller decides what a detection means.
  void first_detections(const std::vector<Fault*>& faults, std::size_t count,
                        std::vector<std::size_t>& first);

  /// Summed per-worker counters since the last call; resets the workers.
  FaultSimStats take_stats();

 private:
  std::vector<std::unique_ptr<FaultSimulator>> sims_;
  ThreadPool* pool_;  ///< where grade() forks its chunks; null = serial
  std::vector<Word> detect_buf_;  ///< first_detections() scratch
};

}  // namespace tpi
