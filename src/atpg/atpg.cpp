#include "atpg/atpg.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <mutex>
#include <optional>

#include "atpg/fault_sim.hpp"
#include "netlist/design_db.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// Pack up to nw*64 patterns into per-input lane words (input-major):
// pattern k lands in bit k%64 of words[i*nw + k/64]. Lanes past the
// pattern count stay zero (phantom all-zero vectors; grading masks them
// out with lane_mask).
void pack_batch(const std::vector<const TestPattern*>& batch, std::size_t num_inputs, int nw,
                std::vector<Word>& words) {
  words.assign(num_inputs * static_cast<std::size_t>(nw), 0);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const TestPattern& p = *batch[k];
    const std::size_t j = k / kWordBits;
    const int bit = static_cast<int>(k % kWordBits);
    for (std::size_t i = 0; i < num_inputs; ++i) {
      words[i * static_cast<std::size_t>(nw) + j] |= static_cast<Word>(p.get(i)) << bit;
    }
  }
}

// Largest power-of-two word count covering `remaining` 64-pattern batches,
// capped at kMaxLaneWords (the super-batch width).
int super_batch_words(int remaining) {
  int nw = 1;
  while (nw * 2 <= kMaxLaneWords && nw * 2 <= remaining) nw *= 2;
  return nw;
}

// Live = could still be detected by a pattern: everything but kDetected and
// kScanTested (kRedundant/kAborted stay eligible — simulation evidence of
// detection overrides them). Built once per phase and then shrunk by
// drop_faults instead of rescanning the whole fault list every batch.
void rebuild_live(FaultList& list, std::vector<Fault*>& live) {
  live.clear();
  for (Fault& f : list.faults) {
    if (f.status != FaultStatus::kDetected && f.status != FaultStatus::kScanTested) {
      live.push_back(&f);
    }
  }
}

// The drop loop of every phase: each live fault whose first detecting
// pattern (first[i], from FaultSimBank::first_detections) lies below
// `limit` becomes kDetected and leaves `live`, which keeps its order;
// on_drop(pattern) sees that first detector.
template <class OnDrop>
void drop_faults(std::vector<Fault*>& live, const std::vector<std::size_t>& first,
                 std::size_t limit, OnDrop on_drop) {
  std::size_t w = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    if (first[i] >= limit) {
      live[w++] = live[i];
      continue;
    }
    live[i]->status = FaultStatus::kDetected;
    on_drop(first[i]);
  }
  live.resize(w);
}

// Speculative targets in flight per PODEM worker: enough queued work that
// a worker finishing a cheap call finds the next target waiting, few
// enough that a fault-sim drop rarely invalidates many of them.
constexpr std::size_t kWindowPerWorker = 4;

// Phase 2's PODEM window. The caller pushes upcoming targets in target
// order and consumes the results in the same order. With a pool, each
// target is a fork of that pool, queued one priority level below the
// run's grading chunks so a drop never waits for the queued part of the
// window; the caller joins the oldest in front(), so under the join rule a
// pool worker runs its own unclaimed target inline and the window cannot
// deadlock a shared pool. Without a pool, push() runs PODEM inline, so the
// serial flow is the same loop with a window of one. Correct because
// Podem::generate is a pure function of the fault: a result computed early
// is the result the serial loop computes on reaching the target.
class PodemWindow {
 public:
  struct Slot {
    std::size_t fault_index = 0;
    Fault fault;  ///< the worker's copy; the caller updates statuses meanwhile
    PodemResult result;
    std::optional<ThreadPool::Fork<void>> done;  ///< empty once consumed, or when run inline
  };

  /// A window of `width` x kWindowPerWorker targets on `pool`, or of one
  /// inline target when `pool` is null.
  PodemWindow(const CombModel& model, const TestabilityResult& testability,
              const PodemOptions& opts, ThreadPool* pool, std::size_t width)
      : model_(model),
        testability_(testability),
        opts_(opts),
        pool_(pool),
        slots_(pool != nullptr ? width * kWindowPerWorker : 1) {
    for (Slot& s : slots_) s.result.cube.reserve(model.input_nets().size());
  }

  PodemWindow(const PodemWindow&) = delete;
  PodemWindow& operator=(const PodemWindow&) = delete;

  bool full() const { return count_ == slots_.size(); }
  bool empty() const { return count_ == 0; }
  /// Targets pushed so far (committed + discarded).
  std::uint64_t pushed() const { return pushed_; }

  void push(std::size_t fault_index, const Fault& fault) {
    Slot& s = slots_[(head_ + count_) % slots_.size()];
    ++count_;
    ++pushed_;
    s.fault_index = fault_index;
    s.fault = fault;
    if (pool_ == nullptr) {
      run(s);
      return;
    }
    s.done.emplace(pool_->fork([this, &s] { run(s); }, -1));
  }

  /// The oldest target, after its result is ready.
  Slot& front() {
    Slot& s = slots_[head_];
    if (s.done) {
      s.done->join();
      s.done.reset();
    }
    return s;
  }

  void pop() {
    head_ = (head_ + 1) % slots_.size();
    --count_;
  }

 private:
  // Leases an idle Podem, building one only when every instance is busy:
  // the window never holds more instances than targets ever ran at once.
  void run(Slot& s) {
    std::unique_ptr<Podem> podem;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!idle_.empty()) {
        podem = std::move(idle_.back());
        idle_.pop_back();
      }
    }
    if (podem == nullptr) podem = std::make_unique<Podem>(model_, testability_, opts_);
    podem->generate(s.fault, s.result);
    std::lock_guard<std::mutex> lock(mu_);
    idle_.push_back(std::move(podem));
  }

  const CombModel& model_;
  const TestabilityResult& testability_;
  PodemOptions opts_;
  ThreadPool* pool_;
  std::mutex mu_;
  std::vector<std::unique_ptr<Podem>> idle_;  ///< guarded by mu_
  // Declared after everything its tasks use: destroying a slot waits for
  // its in-flight task.
  std::vector<Slot> slots_;  ///< ring: count_ slots from head_
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::uint64_t pushed_ = 0;
};

}  // namespace

AtpgResult run_atpg(const CombModel& model, const TestabilityResult& testability,
                    const AtpgOptions& opts) {
  AtpgResult res;
  res.fault_model = opts.fault_model;
  res.faults = build_fault_list(model, opts.fault_model);
  res.total_faults = res.faults.total_uncollapsed;
  const bool loc = opts.fault_model == FaultModel::kTransition;

  // Grading and PODEM fan out on the pool this call runs on. A caller on
  // no pool that asks for more than one job gets a pool for this run only.
  ThreadPool* pool = ThreadPool::current();
  std::optional<ThreadPool> own_pool;
  if (pool == nullptr && opts.jobs != 1) {
    pool = &own_pool.emplace(opts.jobs > 0 ? static_cast<unsigned>(opts.jobs) : 0u);
  }
  FaultSimBank bank(model, pool, opts.jobs);
  const std::size_t width = static_cast<std::size_t>(bank.jobs());
  Rng rng(opts.seed);
  const std::size_t num_inputs = model.input_nets().size();

  // Transition targets on pseudo-input nets need the launch frame to set
  // the site's initial value; map each pseudo-input net to its input slot.
  std::vector<int> pseudo_input_slot;
  if (loc) {
    pseudo_input_slot.assign(model.netlist().num_nets(), -1);
    for (std::size_t i = model.num_pi_inputs(); i < num_inputs; ++i) {
      pseudo_input_slot[static_cast<std::size_t>(model.input_nets()[i])] =
          static_cast<int>(i);
    }
  }

  // Reusable batch scaffolding, hoisted out of the per-batch loops: the
  // pattern slots (with their bit vectors), the packed input words and the
  // ref array are allocated once and refilled every batch.
  std::vector<TestPattern> batch(static_cast<std::size_t>(kWordBits) * kMaxLaneWords,
                                 TestPattern(num_inputs));
  std::vector<const TestPattern*> refs;
  refs.reserve(batch.size());
  std::vector<Word> words;
  std::vector<Fault*> live;
  live.reserve(res.faults.faults.size());
  rebuild_live(res.faults, live);
  std::vector<std::size_t> first;  // per live fault: first detector in refs
  std::uint64_t batches = 0;       // 64-pattern batches applied

  // Grade the live list against the patterns in `refs`, packed into the
  // fewest lane words that hold them. Launch-on-capture loads each pattern
  // as the launch frame and grades the derived capture frame; stuck-at
  // grades the pattern directly.
  auto grade_refs = [&] {
    const int nw = static_cast<int>((refs.size() + kWordBits - 1) / kWordBits);
    pack_batch(refs, num_inputs, nw, words);
    bank.configure_lanes(nw);
    if (loc) {
      bank.load_batch_loc(words);
    } else {
      bank.load_batch(words);
    }
    bank.first_detections(live, refs.size(), first);
  };
  auto batch_refs = [&](std::size_t count) {
    refs.clear();
    for (std::size_t k = 0; k < count; ++k) refs.push_back(&batch[k]);
  };
  auto keep_batch = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) res.patterns.push_back(batch[k]);
  };

  // ---- phase 1: pseudo-random warm-up ----
  // Super-batched: up to kMaxLaneWords 64-pattern batches are generated,
  // packed and graded in one wide pass (one net visit grades them all).
  // The per-batch yield cutoff is replicated from the first detecting
  // patterns: sub-batch s's yield is the equiv count of kUndetected faults
  // first detected in it, the phase stops at the first sub-batch whose
  // yield falls below random_min_yield (that sub-batch's drops and
  // patterns still count), and faults first detected after the cutoff stay
  // live — their detecting patterns were never applied.
  const auto t_random = Clock::now();
  {
    TPI_SPAN("atpg.random");
    int b = 0;
    bool low_yield = false;
    while (b < opts.random_batches && !low_yield) {
      const int nb = super_batch_words(opts.random_batches - b);
      const std::size_t count = static_cast<std::size_t>(nb) * kWordBits;
      for (std::size_t k = 0; k < count; ++k) {
        for (std::size_t i = 0; i < num_inputs; ++i) batch[k].set(i, rng.next_bool());
      }
      batch_refs(count);
      grade_refs();

      std::int64_t yields[kMaxLaneWords] = {};
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i]->status == FaultStatus::kUndetected && first[i] < count) {
          yields[first[i] / kWordBits] += live[i]->equiv_count;
        }
      }
      int applied = nb;
      for (int s = 0; s < nb; ++s) {
        if (yields[s] < opts.random_min_yield) {
          applied = s + 1;
          low_yield = true;
          break;
        }
      }
      const std::size_t applied_patterns = static_cast<std::size_t>(applied) * kWordBits;
      drop_faults(live, first, applied_patterns, [](std::size_t) {});
      keep_batch(applied_patterns);
      batches += static_cast<std::uint64_t>(applied);
      b += applied;
    }
  }
  const double random_ms = ms_since(t_random);

  // ---- phase 2: deterministic PODEM with dynamic compaction ----
  // Targets ordered hardest-first (lowest COP detection probability): hard
  // faults anchor patterns whose random fill then sweeps up easy faults.
  const auto t_podem = Clock::now();
  {
    TPI_SPAN("atpg.podem");
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < res.faults.faults.size(); ++i) {
      if (res.faults.faults[i].status == FaultStatus::kUndetected) order.push_back(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      const Fault& fa = res.faults.faults[a];
      const Fault& fb = res.faults.faults[b];
      const float pa = fa.stuck1 ? testability.detect_prob_sa0(fa.net)
                                 : testability.detect_prob_sa1(fa.net);
      const float pb = fb.stuck1 ? testability.detect_prob_sa0(fb.net)
                                 : testability.detect_prob_sa1(fb.net);
      return pa < pb;
    });

    // Results are committed strictly in target order, exactly as a serial
    // loop would: statuses change only at the 64-success drops (and for the
    // committed target itself), so a target that is still kUndetected when
    // dispatched is one the serial loop reaches unless a drop detects it
    // first; such a result is discarded at commit time.
    PodemWindow window(model, testability, opts.podem, width > 1 ? pool : nullptr, width);
    std::size_t next = 0;  // next position of `order` to dispatch
    std::size_t batch_n = 0;
    auto commit = [&](Fault& f, const PodemResult& pr) {
      ++res.podem_calls;
      res.podem_backtracks += pr.backtracks;
      if (pr.outcome == PodemOutcome::kRedundant) {
        f.status = FaultStatus::kRedundant;
        return;
      }
      if (pr.outcome == PodemOutcome::kAborted) {
        f.status = FaultStatus::kAborted;
        ++res.podem_aborts;
        return;
      }
      TestPattern& p = batch[batch_n++];
      for (std::size_t i = 0; i < num_inputs; ++i) {
        const Tern t = pr.cube[i];
        p.set(i, t == Tern::kX ? rng.next_bool() : t == Tern::k1);
      }
      if (loc) {
        // The PODEM cube excites the capture-frame stuck-at equivalent;
        // applied as the launch frame it is a best-effort (pseudo
        // broadside) vector. When the fault site is a pseudo-input its
        // launch value is directly controllable: force the transition's
        // initial value (0 for slow-to-rise, 1 for slow-to-fall). The
        // two-cycle grading below keeps only truthful detections.
        const int slot = pseudo_input_slot[static_cast<std::size_t>(f.net)];
        if (slot >= 0) p.set(static_cast<std::size_t>(slot), f.stuck1);
      }
    };
    // Grade the pending tests, drop every fault they detect and keep them.
    auto flush = [&] {
      batch_refs(batch_n);
      grade_refs();
      drop_faults(live, first, batch_n, [](std::size_t) {});
      keep_batch(batch_n);
      ++batches;
      batch_n = 0;
    };
    while (static_cast<int>(res.patterns.size()) < opts.max_patterns) {
      while (!window.full() && next < order.size()) {
        const std::size_t fi = order[next++];
        const Fault& f = res.faults.faults[fi];
        if (f.status == FaultStatus::kUndetected) window.push(fi, f);
      }
      if (window.empty()) break;
      PodemWindow::Slot& s = window.front();
      Fault& f = res.faults.faults[s.fault_index];
      if (f.status == FaultStatus::kUndetected) commit(f, s.result);
      window.pop();
      if (batch_n == kWordBits) flush();
    }
    if (batch_n > 0) flush();
    // Job-count dependent (the window is), hence a runtime metric.
    metrics().add("rt.atpg.podem_discarded",
                  window.pushed() - static_cast<std::uint64_t>(res.podem_calls));
  }
  res.patterns_before_compaction = static_cast<int>(res.patterns.size());
  const double podem_ms = ms_since(t_podem);

  // ---- phase 3: reverse-order static compaction ----
  double compaction_ms = 0.0;
  if (opts.static_compaction && !res.patterns.empty()) {
    TPI_SPAN("atpg.static_compaction");
    const auto t_compact = Clock::now();
    for (Fault& f : res.faults.faults) {
      if (f.status == FaultStatus::kDetected) f.status = FaultStatus::kUndetected;
    }
    rebuild_live(res.faults, live);
    std::vector<char> keep(res.patterns.size(), 0);
    const std::size_t n = res.patterns.size();
    std::size_t processed = 0;
    while (processed < n) {
      // Super-batch: up to kMaxLaneWords x 64 patterns graded per pass.
      // Batch pattern k = pattern (n-1-processed-k), so the first detector
      // in the batch is the first detector in reverse order — the same
      // pattern the 64-wide loop kept.
      const std::size_t remaining_words = (n - processed + kWordBits - 1) / kWordBits;
      const int nw = super_batch_words(
          static_cast<int>(std::min<std::size_t>(remaining_words, kMaxLaneWords)));
      const std::size_t count =
          std::min<std::size_t>(static_cast<std::size_t>(nw) * kWordBits, n - processed);
      refs.clear();
      for (std::size_t k = 0; k < count; ++k) refs.push_back(&res.patterns[n - 1 - processed - k]);
      grade_refs();
      batches += (count + kWordBits - 1) / kWordBits;
      // A detected fault keeps its first detector and leaves the live list.
      drop_faults(live, first, count,
                  [&](std::size_t k) { keep[n - 1 - processed - k] = 1; });
      processed += count;
    }
    std::vector<TestPattern> kept;
    kept.reserve(res.patterns.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (keep[i]) kept.push_back(std::move(res.patterns[i]));
    }
    res.patterns = std::move(kept);
    compaction_ms = ms_since(t_compact);
  }

  // ---- metrics ----
  res.detected = res.faults.count_equiv(FaultStatus::kDetected);
  res.scan_tested = res.faults.count_equiv(FaultStatus::kScanTested);
  res.redundant = res.faults.count_equiv(FaultStatus::kRedundant);
  res.aborted = res.faults.count_equiv(FaultStatus::kAborted);
  const double total = static_cast<double>(res.total_faults);
  if (total > 0) {
    res.fault_coverage_pct = 100.0 * static_cast<double>(res.detected + res.scan_tested) / total;
    res.fault_efficiency_pct =
        100.0 * static_cast<double>(res.detected + res.scan_tested + res.redundant) / total;
  }
  const FaultSimStats sim = bank.take_stats();
  log_info() << "ATPG " << model.netlist().name() << ": " << res.patterns.size()
             << " patterns (" << res.patterns_before_compaction << " pre-compaction), FC="
             << res.fault_coverage_pct << "% FE=" << res.fault_efficiency_pct << "%";
  log_info() << "ATPG kernel " << model.netlist().name() << ": jobs=" << bank.jobs()
             << " batches=" << batches << " graded=" << sim.faults_graded
             << " cone_skips=" << sim.cone_skips << " node_evals=" << sim.node_evals
             << " sim_wall=" << random_ms + podem_ms + compaction_ms << "ms";
  MetricsRegistry& m = metrics();
  m.add("atpg.patterns", static_cast<std::uint64_t>(res.num_patterns()));
  m.add("atpg.podem.calls", static_cast<std::uint64_t>(res.podem_calls));
  m.add("atpg.podem.aborts", static_cast<std::uint64_t>(res.podem_aborts));
  m.add("atpg.podem.backtracks", static_cast<std::uint64_t>(res.podem_backtracks));
  m.add("atpg.sim.batches", batches);
  m.add("atpg.sim.faults_graded", sim.faults_graded);
  m.add("atpg.sim.cone_skips", sim.cone_skips);
  m.add("atpg.sim.node_evals", sim.node_evals);
  m.add("atpg.sim.events", sim.events);
  m.set("rt.atpg.random_ms", random_ms);
  m.set("rt.atpg.podem_ms", podem_ms);
  m.set("rt.atpg.compaction_ms", compaction_ms);
  m.set("rt.atpg.jobs", bank.jobs());
  return res;
}

AtpgResult run_atpg(DesignDB& db, const AtpgOptions& opts) {
  const CombModel& model = db.comb_model(SeqView::kCapture);
  const TestabilityResult& testability = db.testability(SeqView::kCapture);
  return run_atpg(model, testability, opts);
}

std::int64_t test_data_volume(int num_chains, int max_chain_length, int num_patterns) {
  const std::int64_t n = num_chains, l = max_chain_length, p = num_patterns;
  return 2 * n * ((l + 1) * p + l);
}

std::int64_t test_application_time(int max_chain_length, int num_patterns) {
  const std::int64_t l = max_chain_length, p = num_patterns;
  return (l + 1) * p + l;
}

std::int64_t test_application_time(int max_chain_length, int num_patterns, int capture_cycles) {
  const std::int64_t l = max_chain_length, p = num_patterns, c = capture_cycles;
  return (l + c) * p + l;
}

}  // namespace tpi
