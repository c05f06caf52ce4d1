#include "atpg/fault_sim.hpp"

#include <algorithm>
#include <cassert>

#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace tpi {

FaultSimulator::FaultSimulator(const CombModel& model) : model_(&model), good_(model) {
  scratch_.prepare(model, good_.lane_words());
}

void FaultSimulator::configure_lanes(int lane_words) {
  if (lane_words == good_.lane_words()) return;
  good_.configure_lanes(lane_words);
  scratch_.prepare(*model_, lane_words);
}

void FaultSimulator::load_batch(const std::vector<Word>& input_words) {
  good_.load_inputs(input_words);
  good_.run();
  has_launch_ = false;
}

void FaultSimulator::load_batch_loc(const std::vector<Word>& input_words) {
  good_.load_inputs(input_words);
  good_.run();
  launch_values_ = good_.values();  // V1 frame, net-major
  const CombModel& m = *model_;
  const std::size_t nw = static_cast<std::size_t>(lane_words());
  capture_inputs_ = input_words;  // PIs held across launch and capture
  const std::size_t nff = m.boundary_ffs().size();
  for (std::size_t i = 0; i < nff; ++i) {
    const NetId d = m.observe_nets()[m.num_po_observes() + i];
    const Word* w = launch_values_.data() + static_cast<std::size_t>(d) * nw;
    for (std::size_t j = 0; j < nw; ++j) {
      capture_inputs_[(m.num_pi_inputs() + i) * nw + j] = w[j];
    }
  }
  good_.load_inputs(capture_inputs_);
  good_.run();
  has_launch_ = true;
}

void FaultSimulator::copy_good_from(const FaultSimulator& other) {
  assert(model_ == other.model_);
  configure_lanes(other.lane_words());
  good_.assign_values(other.good_.values());
  has_launch_ = other.has_launch_;
  if (has_launch_) launch_values_ = other.launch_values_;
}

FaultTask resolve_fault_task(const CombModel& model, const Fault& fault) {
  FaultTask task;
  task.net = fault.net;
  task.stuck1 = fault.stuck1;
  if (fault.is_stem()) return task;
  for (const int reader : model.readers_of(fault.net)) {
    if (model.nodes()[static_cast<std::size_t>(reader)].cell == fault.branch.cell) {
      task.branch_reader = reader;
      return task;
    }
  }
  // No logic reader: an FF D-pin branch is captured directly whenever the
  // good value differs; any other sink (PO branch, scan pin) is dead.
  const CellSpec* spec = model.netlist().cell(fault.branch.cell).spec;
  if (spec->sequential && fault.branch.pin == spec->d_pin) {
    task.direct_capture = true;
  } else {
    task.dead_branch = true;
  }
  return task;
}

FaultTask FaultSimulator::resolve(const Fault& fault) const {
  return resolve_fault_task(*model_, fault);
}

Word FaultSimulator::detects(const Fault& fault) {
  Word out[kMaxLaneWords];
  detects_wide(fault, out);
  return out[0];
}

void FaultSimulator::apply_launch_mask(const Fault& fault, Word* detect) const {
  if (fault.model != FaultModel::kTransition) return;
  const std::size_t nw = static_cast<std::size_t>(lane_words());
  if (!has_launch_) {
    for (std::size_t j = 0; j < nw; ++j) detect[j] = 0;
    return;
  }
  const Word* launch = launch_values_.data() + static_cast<std::size_t>(fault.net) * nw;
  for (std::size_t j = 0; j < nw; ++j) {
    // Slow-to-fall needs launch 1 at the site; slow-to-rise needs launch 0.
    detect[j] &= fault.stuck1 ? launch[j] : ~launch[j];
  }
}

void FaultSimulator::detects_wide(const Fault& fault, Word* out) {
  const FaultTask task = resolve(fault);
  sim_kernels().grade(*model_, scratch_, good_.values().data(), &task, 1, out, stats_);
  apply_launch_mask(fault, out);
}

void FaultSimulator::grade(const Fault* const* faults, std::size_t count, Word* detect) {
  tasks_.resize(count);
  for (std::size_t i = 0; i < count; ++i) tasks_[i] = resolve(*faults[i]);
  sim_kernels().grade(*model_, scratch_, good_.values().data(), tasks_.data(), count, detect,
                      stats_);
  const std::size_t nw = static_cast<std::size_t>(lane_words());
  for (std::size_t i = 0; i < count; ++i) {
    apply_launch_mask(*faults[i], detect + i * nw);
  }
}

FaultSimBank::FaultSimBank(const CombModel& model, ThreadPool* pool, int jobs)
    : pool_(pool) {
  const unsigned n =
      jobs > 0 ? static_cast<unsigned>(jobs) : pool != nullptr ? pool->size() : 1u;
  sims_.reserve(n);
  for (unsigned i = 0; i < n; ++i) sims_.push_back(std::make_unique<FaultSimulator>(model));
}

void FaultSimBank::configure_lanes(int lane_words) {
  for (auto& sim : sims_) sim->configure_lanes(lane_words);
}

void FaultSimBank::load_batch(const std::vector<Word>& input_words) {
  sims_.front()->load_batch(input_words);
  for (std::size_t i = 1; i < sims_.size(); ++i) sims_[i]->copy_good_from(*sims_.front());
}

void FaultSimBank::load_batch_loc(const std::vector<Word>& input_words) {
  sims_.front()->load_batch_loc(input_words);
  for (std::size_t i = 1; i < sims_.size(); ++i) sims_[i]->copy_good_from(*sims_.front());
}

void FaultSimBank::grade(const std::vector<Fault*>& faults, std::vector<Word>& detect) {
  const std::size_t n = faults.size();
  const std::size_t nw = static_cast<std::size_t>(lane_words());
  detect.resize(n * nw);
  const std::size_t workers = sims_.size();
  // Tiny lists are not worth the dispatch; the result is identical either
  // way (each fault is graded exactly once, output indexed by position).
  if (pool_ == nullptr || workers == 1 || n < static_cast<std::size_t>(kWordBits) * workers) {
    sims_.front()->grade(faults.data(), n, detect.data());
    return;
  }
  std::vector<ThreadPool::Fork<void>> chunks;
  chunks.reserve(workers);
  for (std::size_t c = 0; c < workers; ++c) {
    const std::size_t lo = n * c / workers;
    const std::size_t hi = n * (c + 1) / workers;
    chunks.push_back(pool_->fork([this, &faults, &detect, nw, c, lo, hi] {
      TPI_SPAN("atpg.grade_chunk");
      sims_[c]->grade(faults.data() + lo, hi - lo, detect.data() + lo * nw);
    }));
  }
  for (ThreadPool::Fork<void>& chunk : chunks) chunk.join();
}

void FaultSimBank::first_detections(const std::vector<Fault*>& faults, std::size_t count,
                                    std::vector<std::size_t>& first) {
  const std::size_t nw = static_cast<std::size_t>(lane_words());
  assert(count <= nw * kWordBits);
  grade(faults, detect_buf_);
  first.resize(faults.size());
  for (std::size_t i = 0; i < faults.size(); ++i) {
    first[i] = count;
    for (std::size_t j = 0; j * kWordBits < count; ++j) {
      const Word d = detect_buf_[i * nw + j] & lane_mask(count, j);
      if (d != 0) {
        first[i] = j * kWordBits + static_cast<std::size_t>(first_detecting_pattern(d));
        break;
      }
    }
  }
}

FaultSimStats FaultSimBank::take_stats() {
  FaultSimStats total;
  for (auto& sim : sims_) {
    total += sim->stats();
    sim->reset_stats();
  }
  return total;
}

}  // namespace tpi
