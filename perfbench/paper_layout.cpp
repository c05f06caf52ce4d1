// paper_layout: throughput of the Table 2/3 grid at paper size. The three
// profiles at scale 1.0 x {0..5}% TP, all stages except reorder_atpg, on a
// SweepRunner with nproc workers. ATPG is skipped entirely: the time goes
// to tpi_scan, placement, eco and sta, plus pool throughput, and an ATPG
// change should leave this workload unchanged.
//
// The circuits are the paper's three, with their own generator seeds; the
// workload seed feeds FlowOptions::seed (placement). Seeded circuits made
// the sweep's wall time spread by 0.14 (IQR over median) from seed to seed,
// against 0.06 for the paper circuits. Cells generate their own designs
// inside the sweep (SweepRunner's contract), so set-up is the library
// build plus one small warm-up sweep.
#include <cstdio>

#include "bench.hpp"
#include "circuits/generator.hpp"
#include "flow/sweep.hpp"
#include "library/library.hpp"

namespace perfbench {
namespace {

using tpi::Stage;

constexpr double kTpPercents[] = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0};
constexpr double kWarmupScale = 0.25;
constexpr int kSetupRepeats = 5;

const tpi::StageMask kLayoutStages = tpi::StageMask::all().without(Stage::kReorderAtpg);

tpi::SweepReport run_sweep(const tpi::CellLibrary& lib, const Options& opts, double scale,
                           const std::vector<double>& tps, tpi::FlowObserver* observer) {
  tpi::SweepOptions so;
  so.jobs = opts.nproc;
  so.progress = false;
  so.observer = observer;
  tpi::FlowOptions fo;
  fo.seed = mix_seed(opts.seed, 7);
  return tpi::SweepRunner(so).run(
      lib, tpi::SweepRunner::grid(paper_profiles_at(scale), tps, fo, kLayoutStages));
}

/// Output checks of one sweep; returns its result digest. Equal floorplans
/// can differ in the last bit of their summed area, hence the tolerance.
std::string check_sweep(const tpi::SweepReport& sweep, Report& report) {
  Digest digest;
  const tpi::FlowResult* prev = nullptr;
  for (const tpi::SweepCellResult& cell : sweep.cells) {
    const tpi::FlowResult& r = cell.result;
    const bool same_circuit = prev != nullptr && prev->circuit == r.circuit;
    report.op(r.num_cells > 0 && r.sta.worst.valid &&
                  (!same_circuit ||
                   (r.num_cells >= prev->num_cells &&
                    r.chip_area_um2 >= prev->chip_area_um2 * (1.0 - 1e-12))),
              cell.job.label + ": STA valid; cells and area do not shrink as TP% rises (" +
                  result_line(r) + (same_circuit ? "; previous TP: " + result_line(*prev) : "") +
                  ")");
    digest.add(result_line(r));
    prev = &r;
  }
  return digest.hex();
}

}  // namespace

void run_paper_layout(const Options& opts, Report& report) {
  const std::vector<double> tps(std::begin(kTpPercents), std::end(kTpPercents));
  std::vector<double> setup_s;
  std::unique_ptr<tpi::CellLibrary> lib;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    lib = tpi::make_phl130_library();
    run_sweep(*lib, opts, kWarmupScale, {0.0}, nullptr);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  report.metric("setup_s", median(setup_s));

  std::vector<tpi::SweepReport> sweeps;
  std::vector<double> wall_s, cell_ms;
  const Clock::time_point window = Clock::now();
  do {
    sweeps.push_back(run_sweep(*lib, opts, 1.0, tps, nullptr));
    wall_s.push_back(sweeps.back().wall_ms / 1000.0);
    for (const tpi::SweepCellResult& c : sweeps.back().cells) cell_ms.push_back(c.wall_ms);
  } while (ms_since(window) < opts.seconds * 1000.0);

  report.digest = check_sweep(sweeps.front(), report);
  for (const tpi::SweepReport& s : sweeps) {
    report.check(check_sweep(s, report) == report.digest, "every sweep repeats the first's results");
  }
  add_layer_counts(sweeps.front().metrics, report.counts);

  const double wall = median(wall_s);
  report.metric("wall_s", wall);
  report.metric("jobs_per_s", static_cast<double>(sweeps.front().cells.size()) / wall);
  report.metric("job_p50_ms", quantile(cell_ms, 0.5));
  report.metric("job_p90_ms", quantile(cell_ms, 0.9));
  std::vector<Qor> qor;
  for (const tpi::SweepCellResult& c : sweeps.front().cells) qor.push_back(qor_of(c.result));
  report_qor(report, qor);
  std::printf("paper_layout: %zu sweeps of %zu cells on %d workers, %zu cell samples; sweep "
              "walls (s):",
              sweeps.size(), sweeps.front().cells.size(), opts.nproc, cell_ms.size());
  for (const double w : wall_s) std::printf(" %.3f", w);
  std::printf("\n");
  if (!opts.trace) return;

  // ---- traced run: per-layer numbers ----
  SpanLog log;
  StageRecorder recorder(log);
  const int sweep_span = log.begin("bench.sweep", "paper_layout");
  const tpi::SweepReport traced = run_sweep(*lib, opts, 1.0, tps, &recorder);
  log.end(sweep_span);
  report.check(check_sweep(traced, report) == report.digest,
               "traced sweep repeats the untraced results");
  std::map<std::string, double> traced_counts;
  add_layer_counts(traced.metrics, traced_counts);
  bool stable = true;
  for (const auto& [name, value] : report.counts) {
    if (traced_counts[name] != value) {
      std::printf("FLAG count %s not exact: %.17g untraced, %.17g traced\n", name.c_str(),
                  value, traced_counts[name]);
      stable = false;
    }
  }
  report.layer("bench.counts_stable", stable ? 1.0 : 0.0);
  report_layers(report, report.counts, recorder.program_spans());

  const auto ms = [&](Stage st) { return traced.stage_total_ms[static_cast<std::size_t>(st)]; };
  double stage_total = 0.0;
  for (const double v : traced.stage_total_ms) stage_total += v;
  std::vector<double> traced_cell_ms;
  for (const tpi::SweepCellResult& c : traced.cells) traced_cell_ms.push_back(c.wall_ms);
  report.layer("flow.tpi_scan_ms", ms(Stage::kTpiScan));
  report.layer("flow.floorplan_place_ms", ms(Stage::kFloorplanPlace));
  report.layer("flow.reorder_atpg_ms", ms(Stage::kReorderAtpg));
  report.layer("flow.eco_ms", ms(Stage::kEco));
  report.layer("flow.extract_ms", ms(Stage::kExtract));
  report.layer("flow.sta_ms", ms(Stage::kSta));
  report.layer("flow.stage_cover_pct", 100.0 * stage_total / traced.cpu_ms);
  report.layer("atpg.stage_share_pct", 100.0 * ms(Stage::kReorderAtpg) / stage_total);
  report.layer("atpg.podem.abort_ms", 0.0);
  report.layer("atpg.podem.redundant_ms", 0.0);
  report.layer("sweep.parallel_speedup", traced.speedup());
  report.layer("sweep.cell_p50_ms", quantile(traced_cell_ms, 0.5));
  report.layer("sweep.cell_max_ms", quantile(traced_cell_ms, 1.0));
  report.layer("bench.trace_overhead_pct", 100.0 * (traced.wall_ms / 1000.0 / wall - 1.0));
  report.layer("bench.job_samples", static_cast<double>(cell_ms.size()));

  // Per-call generation, testability analysis and TPI ranking at paper
  // size, timed from outside.
  double generate_ms = 0.0, analyze_ms = 0.0, rank_ms = 0.0;
  for (const tpi::CircuitProfile& p : paper_profiles_at(1.0)) {
    const Clock::time_point t0 = Clock::now();
    const std::unique_ptr<tpi::Netlist> nl = tpi::generate_circuit(*lib, p);
    generate_ms += ms_since(t0);
    report.check(time_tpi_calls(*nl, log, analyze_ms, rank_ms),
                 p.name + ": TPI ranking returns candidates");
  }
  report.layer("circuits.generate_ms", generate_ms);
  report.layer("testability.analyze_ms", analyze_ms);
  report.layer("tpi.rank_ms", rank_ms);
  for (const char* name :
       {"server.queue_wait_p50_ms", "server.queue_wait_p90_ms", "server.cache.hit_ratio",
        "server.jobs_rejected", "server.submit_rpc_p50_ms", "server.soc_job_p50_ms",
        "qor.fault_coverage_pct", "qor.fault_efficiency_pct", "qor.tat_cycles",
        "qor.soc_chip_tat_cycles"}) {
    report.layer(name, 0.0);
  }
  log.write(opts);
}

}  // namespace perfbench
