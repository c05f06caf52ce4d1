// table1_atpg: single-flow latency of the Table 1 flow. The paper's three
// profiles at scale 0.25 x {0, 1, 5}% TP, all stages except extract and
// sta, one cell at a time with ATPG fault simulation on nproc workers.
// ATPG (and within it aborted PODEM calls) dominates, so this is the
// workload where PODEM search and parallel PODEM show.
//
// The circuits are the paper's three, with their own generator seeds; the
// workload seed drives the flow's random decisions (AtpgOptions::seed for
// the random phase and fill, FlowOptions::seed for placement). Seeding the
// circuits instead moves this workload's PODEM work by about +-11% from
// seed to seed (aborts follow the few hard blocks of each circuit), more
// than a wall-time bound can absorb. Designs are generated during set-up;
// each cell copies its design (untimed) and times FlowEngine construction
// plus run(). F_max of each layout is measured after the timed flow by
// running extract and sta.
//
// A traced run makes one untraced pass (the tracing-overhead baseline),
// then a traced pass (stage spans through a FlowObserver, program spans
// through TraceSinks, the opt-in verify stage, and a PODEM replay of every
// aborted/redundant fault to time PODEM by outcome), then the 5%-TP cells
// again at ATPG jobs=1, whose counters must equal the nproc run exactly.
#include <cstdio>

#include "atpg/podem.hpp"
#include "bench.hpp"
#include "circuits/generator.hpp"
#include "library/library.hpp"

namespace perfbench {
namespace {

using tpi::Stage;

constexpr double kScale = 0.25;
const std::vector<double> kTpPercents = {0.0, 1.0, 5.0};
constexpr double kWarmupScale = 0.05;
constexpr int kSetupRepeats = 5;

const tpi::StageMask kTable1Stages =
    tpi::StageMask::all().without(Stage::kExtract).without(Stage::kSta);

struct Design {
  tpi::CircuitProfile profile;
  std::unique_ptr<tpi::Netlist> netlist;
};

struct Setup {
  std::unique_ptr<tpi::CellLibrary> lib;
  std::vector<Design> designs;
  double generate_ms = 0.0;
};

/// Library, designs, and one small warm-up flow so that lazy set-up
/// (kernel dispatch, fault-simulation workers, allocator) is not timed in
/// the first cell.
Setup set_up(const Options& opts) {
  Setup s;
  s.lib = tpi::make_phl130_library();
  for (tpi::CircuitProfile& p : paper_profiles_at(kScale)) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<tpi::Netlist> nl = tpi::generate_circuit(*s.lib, p);
    s.generate_ms += ms_since(t0);
    s.designs.push_back(Design{std::move(p), std::move(nl)});
  }
  tpi::FlowOptions fo;
  fo.tp_percent = 1.0;
  fo.atpg.jobs = opts.nproc;
  tpi::FlowEngine(*s.lib, paper_profiles_at(kWarmupScale).front(), fo).run(kTable1Stages);
  return s;
}

/// Traced-pass state: the span log, the stage observer and the PODEM
/// replay totals.
struct Tracing {
  SpanLog log;
  StageRecorder recorder{log};
  double abort_ms = 0.0;
  double redundant_ms = 0.0;
  long replayed = 0;
  long mismatches = 0;
};

struct CellRun {
  std::string label;
  double wall_ms = 0.0;  ///< engine construction + timed stages
  tpi::StageTimings timings;  ///< the timed stages only
  tpi::FlowResult result;     ///< after the untimed extract + sta
  std::map<std::string, double> counts;
  bool verify_ok = true;
};

/// Re-run PODEM on every fault the flow left aborted or redundant, over
/// the CombModel and testability the flow's ATPG used, timing each call
/// by outcome.
void replay_podem(tpi::FlowEngine& engine, const tpi::PodemOptions& podem_opts, Tracing& t) {
  tpi::DesignDB& db = engine.design_db();
  tpi::Podem podem(db.comb_model(tpi::SeqView::kCapture), db.testability(tpi::SeqView::kCapture),
                   podem_opts);
  for (const tpi::Fault& f : engine.result().atpg.faults.faults) {
    const bool aborted = f.status == tpi::FaultStatus::kAborted;
    if (!aborted && f.status != tpi::FaultStatus::kRedundant) continue;
    const Clock::time_point t0 = Clock::now();
    const tpi::PodemResult pr = podem.generate(f);
    (aborted ? t.abort_ms : t.redundant_ms) += ms_since(t0);
    ++t.replayed;
    const tpi::PodemOutcome want =
        aborted ? tpi::PodemOutcome::kAborted : tpi::PodemOutcome::kRedundant;
    if (pr.outcome != want) ++t.mismatches;
  }
}

CellRun run_cell(const Design& d, double tp, const Options& opts, int atpg_jobs,
                 Tracing* tracing) {
  CellRun cell;
  cell.label = cell_label(d.profile.name, tp);
  tpi::Netlist nl = *d.netlist;

  tpi::FlowOptions fo;
  fo.tp_percent = tp;
  fo.seed = mix_seed(opts.seed, 7);
  fo.atpg.jobs = atpg_jobs;
  fo.atpg.seed = mix_seed(opts.seed, 11);
  fo.verify = tracing != nullptr;

  double paused_ms = 0.0;
  const Clock::time_point t0 = Clock::now();
  ScopedSpan cell_span(tracing != nullptr ? &tracing->log : nullptr, "bench.cell", cell.label);
  tpi::FlowEngine engine(nl, d.profile, fo);
  engine.set_job_label(cell.label);
  if (tracing == nullptr) {
    engine.run(kTable1Stages);
    add_layer_counts(engine.result().metrics, cell.counts);
  } else {
    tracing->recorder.set_parent(cell.label, cell_span.id());
    engine.set_observer(&tracing->recorder);
    for (const Stage s : {Stage::kTpiScan, Stage::kFloorplanPlace, Stage::kReorderAtpg,
                          Stage::kEco}) {
      engine.run_stage(s);
      if (s != Stage::kReorderAtpg) continue;
      const Clock::time_point r0 = Clock::now();
      ScopedSpan replay(&tracing->log, "bench.podem_replay", cell.label, cell_span.id());
      replay_podem(engine, fo.atpg.podem, *tracing);
      paused_ms += ms_since(r0);
    }
    // Counters before the verify stage, so they compare with untraced passes.
    add_layer_counts(engine.result().metrics, cell.counts);
    engine.run_stage(Stage::kVerify);
    cell.verify_ok = engine.result().verify.ok();
    engine.set_observer(nullptr);
  }
  cell.wall_ms = ms_since(t0) - paused_ms;
  cell.timings = engine.result().timings;
  cell.counts["atpg.podem.redundant"] =
      static_cast<double>(engine.result().atpg.faults.count(tpi::FaultStatus::kRedundant));
  cell.counts["atpg.patterns_before_compaction"] =
      engine.result().atpg.patterns_before_compaction;

  // Untimed: F_max of the layout for the quality-of-results metrics.
  engine.run_stage(Stage::kExtract);
  engine.run_stage(Stage::kSta);
  cell.result = engine.result();
  return cell;
}

struct Pass {
  std::vector<CellRun> cells;
  double wall_ms = 0.0;
};

Pass run_pass(const Setup& s, const Options& opts, int atpg_jobs, Tracing* tracing,
              const std::vector<double>& tps = kTpPercents) {
  Pass pass;
  for (const Design& d : s.designs) {
    for (const double tp : tps) {
      pass.cells.push_back(run_cell(d, tp, opts, atpg_jobs, tracing));
      pass.wall_ms += pass.cells.back().wall_ms;
    }
  }
  return pass;
}

/// Output checks of every cell of a pass.
void check_cells(const Pass& pass, Report& report) {
  for (const CellRun& c : pass.cells) {
    const tpi::FlowResult& r = c.result;
    report.op(r.fault_coverage_pct <= r.fault_efficiency_pct + 1e-9 &&
                  r.fault_efficiency_pct <= 100.0 + 1e-9 && r.saf_patterns > 0 &&
                  r.sta.worst.valid && c.verify_ok,
              c.label + ": FC <= FE <= 100, patterns > 0, STA valid, verify ok (" +
                  result_line(r) + ")");
  }
}

std::string digest_of(const Pass& pass) {
  Digest digest;
  for (const CellRun& c : pass.cells) digest.add(result_line(c.result));
  return digest.hex();
}

/// Each cell of `other` must give the results of the same cell in `base`
/// (a failure otherwise) and the same work counters (flagged otherwise).
/// Returns false when a counter differs.
bool compare_cells(const Pass& base, const Pass& other, const char* what, Report& report) {
  std::map<std::string, const CellRun*> by_label;
  for (const CellRun& c : base.cells) by_label[c.label] = &c;
  bool same = true;
  for (const CellRun& c : other.cells) {
    const CellRun& b = *by_label.at(c.label);
    report.check(result_line(c.result) == result_line(b.result),
                 c.label + ": " + what + " pass repeats the untraced results");
    for (const auto& [name, value] : b.counts) {
      const auto it = c.counts.find(name);
      const double v = it == c.counts.end() ? -1.0 : it->second;
      if (v == value) continue;
      std::printf("FLAG count %s of %s not exact: %.17g untraced, %.17g in %s pass\n",
                  name.c_str(), c.label.c_str(), value, v, what);
      same = false;
    }
  }
  return same;
}

std::map<std::string, double> pass_counts(const Pass& pass) {
  std::map<std::string, double> counts;
  for (const CellRun& c : pass.cells) {
    for (const auto& [name, value] : c.counts) counts[name] += value;
  }
  return counts;
}

}  // namespace

void run_table1_atpg(const Options& opts, Report& report) {
  std::vector<double> setup_s;
  Setup s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    s = Setup{};  // designs go before the library they point into
    const Clock::time_point t0 = Clock::now();
    s = set_up(opts);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  report.metric("setup_s", median(setup_s));

  // Timed passes until the measuring window is used up (at least one). A
  // traced run makes one: it only serves as the tracing-overhead baseline,
  // and the traced and jobs=1 passes below add more.
  std::vector<Pass> passes;
  std::vector<double> pass_wall_s, cell_ms;
  const Clock::time_point window = Clock::now();
  do {
    passes.push_back(run_pass(s, opts, opts.nproc, nullptr));
    pass_wall_s.push_back(passes.back().wall_ms / 1000.0);
    for (const CellRun& c : passes.back().cells) cell_ms.push_back(c.wall_ms);
  } while (!opts.trace && ms_since(window) < opts.seconds * 1000.0);

  report.digest = digest_of(passes.front());
  for (const Pass& p : passes) {
    check_cells(p, report);
    report.check(digest_of(p) == report.digest, "every pass repeats the first's results");
  }
  report.counts = pass_counts(passes.front());

  const double wall_s = median(pass_wall_s);
  report.metric("wall_s", wall_s);
  report.metric("jobs_per_s", static_cast<double>(passes.front().cells.size()) / wall_s);
  report.metric("job_p50_ms", quantile(cell_ms, 0.5));
  report.metric("job_p90_ms", quantile(cell_ms, 0.9));
  std::vector<Qor> qor;
  for (const CellRun& c : passes.front().cells) qor.push_back(qor_of(c.result));
  report_qor(report, qor);
  std::printf("table1_atpg: %zu passes of %zu cells, %zu cell samples\n", passes.size(),
              passes.front().cells.size(), cell_ms.size());
  for (const CellRun& c : passes.front().cells) {
    std::printf("cell %-16s %9.1f ms  atpg %9.1f ms\n", c.label.c_str(), c.wall_ms,
                c.timings[Stage::kReorderAtpg]);
  }
  if (!opts.trace) return;

  // ---- traced run: per-layer numbers ----
  Tracing tracing;
  const Pass traced = run_pass(s, opts, opts.nproc, &tracing);
  check_cells(traced, report);
  report.check(tracing.mismatches == 0,
               std::to_string(tracing.mismatches) + " of " + std::to_string(tracing.replayed) +
                   " replayed PODEM outcomes differ from the flow's fault status");
  // ATPG work must not depend on the fault-simulation worker count; the
  // 5%-TP cells are the grid's cheapest ATPG runs.
  const Pass serial = run_pass(s, opts, 1, nullptr, {kTpPercents.back()});
  check_cells(serial, report);
  const bool traced_same = compare_cells(passes.front(), traced, "traced", report);
  const bool serial_same = compare_cells(passes.front(), serial, "ATPG jobs=1", report);
  report.layer("bench.counts_stable", traced_same && serial_same ? 1.0 : 0.0);
  report_layers(report, report.counts, tracing.recorder.program_spans());

  std::array<double, tpi::kNumStages> stage_ms{};
  double stage_total = 0.0, timed_total = 0.0;
  for (const CellRun& c : traced.cells) {
    for (const Stage st : tpi::kAllStages) {
      if (st == Stage::kExtract || st == Stage::kSta) continue;  // untimed QoR stages
      stage_ms[static_cast<std::size_t>(st)] += c.timings[st];
      stage_total += c.timings[st];
    }
    timed_total += c.wall_ms;
  }
  const auto ms = [&](Stage st) { return stage_ms[static_cast<std::size_t>(st)]; };
  std::printf("traced pass: %.1f ms in stages (verify %.1f ms), %.1f ms PODEM replay of %ld "
              "faults\n",
              stage_total, ms(Stage::kVerify), tracing.abort_ms + tracing.redundant_ms,
              tracing.replayed);
  report.layer("flow.tpi_scan_ms", ms(Stage::kTpiScan));
  report.layer("flow.floorplan_place_ms", ms(Stage::kFloorplanPlace));
  report.layer("flow.reorder_atpg_ms", ms(Stage::kReorderAtpg));
  report.layer("flow.eco_ms", ms(Stage::kEco));
  report.layer("flow.extract_ms", 0.0);
  report.layer("flow.sta_ms", 0.0);
  report.layer("flow.stage_cover_pct", 100.0 * stage_total / timed_total);
  report.layer("atpg.stage_share_pct",
               100.0 * ms(Stage::kReorderAtpg) / (stage_total - ms(Stage::kVerify)));
  report.layer("atpg.podem.abort_ms", tracing.abort_ms);
  report.layer("atpg.podem.redundant_ms", tracing.redundant_ms);
  report.layer("sweep.parallel_speedup", 1.0);
  report.layer("sweep.cell_p50_ms", quantile(cell_ms, 0.5));
  report.layer("sweep.cell_max_ms", quantile(cell_ms, 1.0));
  report.layer("bench.trace_overhead_pct",
               100.0 * ((timed_total - ms(Stage::kVerify)) / 1000.0 / wall_s - 1.0));
  report.layer("bench.job_samples", static_cast<double>(cell_ms.size()));

  // Per-call testability analysis, TPI ranking and generation, timed from
  // outside on the set-up designs.
  double analyze_ms = 0.0, rank_ms = 0.0;
  for (const Design& d : s.designs) {
    report.check(time_tpi_calls(*d.netlist, tracing.log, analyze_ms, rank_ms),
                 d.profile.name + ": TPI ranking returns candidates");
  }
  report.layer("testability.analyze_ms", analyze_ms);
  report.layer("tpi.rank_ms", rank_ms);
  report.layer("circuits.generate_ms", s.generate_ms);

  double fc = 0.0, fe = 0.0, tat = 0.0;
  for (const CellRun& c : passes.front().cells) {
    fc += c.result.fault_coverage_pct;
    fe += c.result.fault_efficiency_pct;
    tat += static_cast<double>(c.result.tat_cycles);
  }
  const double n = static_cast<double>(passes.front().cells.size());
  report.layer("qor.fault_coverage_pct", fc / n);
  report.layer("qor.fault_efficiency_pct", fe / n);
  report.layer("qor.tat_cycles", tat);
  for (const char* name : {"server.queue_wait_p50_ms", "server.queue_wait_p90_ms",
                           "server.cache.hit_ratio", "server.jobs_rejected",
                           "server.submit_rpc_p50_ms", "server.soc_job_p50_ms",
                           "qor.soc_chip_tat_cycles"}) {
    report.layer(name, 0.0);
  }
  tracing.log.write(opts);
}

}  // namespace perfbench
