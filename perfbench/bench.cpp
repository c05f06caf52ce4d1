#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "testability/testability.hpp"
#include "tpi/tpi.hpp"
#include "util/json.hpp"

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"jobs_per_s", "1/s"},
    {"job_p50_ms", "ms"},
    {"job_p90_ms", "ms"},
    {"peak_rss_mb", "MiB"},
    {"chip_area_mm2", "mm2"},
    {"wire_length_mm", "mm"},
    {"fmax_mhz", "MHz"},
};

const std::vector<MetricDef> kPerLayer = {
    // atpg
    {"atpg.random_ms", "ms"},
    {"atpg.podem_ms", "ms"},
    {"atpg.compaction_ms", "ms"},
    {"atpg.podem.calls", "count"},
    {"atpg.podem.aborts", "count"},
    {"atpg.podem.redundant", "count"},
    {"atpg.podem.backtracks", "count"},
    {"atpg.podem.useful_ratio", "ratio"},
    {"atpg.podem.abort_ms", "ms"},
    {"atpg.podem.redundant_ms", "ms"},
    {"atpg.sim.faults_graded", "count"},
    {"atpg.sim.node_evals", "count"},
    {"atpg.sim.cone_skip_ratio", "ratio"},
    {"atpg.patterns_before_compaction", "count"},
    {"atpg.stage_share_pct", "%"},
    // tpi / testability / netlist
    {"flow.tpi_scan_ms", "ms"},
    {"testability.analyze_ms", "ms"},
    {"tpi.rank_ms", "ms"},
    {"designdb.rebuilds.testability", "count"},
    {"designdb.hit_ratio", "ratio"},
    {"sim.good_node_evals", "count"},
    // layout / extraction / sta
    {"flow.floorplan_place_ms", "ms"},
    {"flow.eco_ms", "ms"},
    {"flow.extract_ms", "ms"},
    {"flow.sta_ms", "ms"},
    {"placement.global_ms", "ms"},
    {"placement.legalize_ms", "ms"},
    {"placement.global_iterations", "count"},
    {"routing.overflowed_crossings", "count"},
    {"sta.slow_nodes", "count"},
    // flow / sweep / thread pool
    {"flow.reorder_atpg_ms", "ms"},
    {"flow.stage_cover_pct", "%"},
    {"sweep.parallel_speedup", "x"},
    {"sweep.cell_p50_ms", "ms"},
    {"sweep.cell_max_ms", "ms"},
    // server / circuits / soc
    {"server.queue_wait_p50_ms", "ms"},
    {"server.queue_wait_p90_ms", "ms"},
    {"server.cache.hit_ratio", "ratio"},
    {"server.jobs_rejected", "count"},
    {"server.submit_rpc_p50_ms", "ms"},
    {"server.soc_job_p50_ms", "ms"},
    {"circuits.generate_ms", "ms"},
    // deterministic quality of results the workload produces
    {"qor.fault_coverage_pct", "%"},
    {"qor.fault_efficiency_pct", "%"},
    {"qor.tat_cycles", "cycles"},
    {"qor.soc_chip_tat_cycles", "cycles"},
    // the benchmark itself
    {"bench.trace_overhead_pct", "%"},
    {"bench.counts_stable", "bool"},
    {"bench.job_samples", "count"},
};

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

void Digest::add(const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  h ^= 0xFF;  // field separator
  h *= 1099511628211ull;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void Report::op(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "[perfbench] FAIL: %s\n", what.c_str());
  }
}

int SpanLog::begin(const std::string& name, const std::string& trace, int parent) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, trace, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::end(int id) {
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

int SpanLog::add(const std::string& name, const std::string& trace, int parent,
                 Clock::time_point begin, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, trace, parent, begin, end});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::write(const Options& opts) const {
  std::lock_guard<std::mutex> lock(mu_);
  Clock::time_point epoch = Clock::time_point::max();
  for (const Span& s : spans_) epoch = std::min(epoch, s.begin);
  tpi::JsonArray events;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    tpi::JsonValue e{tpi::JsonObject{}};
    e.set("name", s.name);
    e.set("ph", "X");
    e.set("ts", std::chrono::duration<double, std::micro>(s.begin - epoch).count());
    e.set("dur", std::chrono::duration<double, std::micro>(s.end - s.begin).count());
    e.set("pid", 1);
    e.set("tid", 1);
    tpi::JsonValue args{tpi::JsonObject{}};
    args.set("id", static_cast<std::int64_t>(i));
    args.set("trace", s.trace);
    args.set("parent", s.parent);
    e.set("args", std::move(args));
    events.push_back(std::move(e));
  }
  tpi::JsonValue doc{tpi::JsonObject{}};
  doc.set("traceEvents", std::move(events));
  std::ofstream(opts.state_dir + "/trace_" + opts.workload + "_seed" +
                std::to_string(opts.seed) + ".json")
      << doc.serialise() << "\n";
}

void add_chrome_trace(const std::string& json, SpanTotals& totals) {
  const tpi::JsonParseResult parsed = tpi::json_parse(json);
  if (!parsed.ok) return;
  const tpi::JsonValue* events = parsed.value.find("traceEvents");
  if (events == nullptr || !events->is_array()) return;
  for (const tpi::JsonValue& e : events->as_array()) {
    const tpi::JsonValue* ph = e.find("ph");
    const tpi::JsonValue* name = e.find("name");
    const tpi::JsonValue* dur = e.find("dur");
    if (ph == nullptr || name == nullptr || dur == nullptr || ph->as_string() != "X") continue;
    totals[name->as_string()] += dur->as_number() / 1000.0;
  }
}

void StageRecorder::set_parent(const std::string& label, int span_id) {
  std::lock_guard<std::mutex> lock(mu_);
  parents_[label] = span_id;
}

void StageRecorder::on_stage_begin(const tpi::StageEvent& event) {
  const std::string label = event.job_label;
  const std::string name = std::string("flow.") + event.name;
  std::lock_guard<std::mutex> lock(mu_);
  const auto parent = parents_.find(label);
  std::unique_ptr<tpi::TraceSink>& sink = sinks_[label];
  if (sink == nullptr) sink = std::make_unique<tpi::TraceSink>(sinks_.size(), label);
  Open& open = open_[label];
  open.span = log_.begin(name, label, parent == parents_.end() ? -1 : parent->second);
  open.scope = std::make_unique<tpi::ScopedTraceSink>(*sink);
}

void StageRecorder::on_stage_end(const tpi::StageEvent& event) {
  std::lock_guard<std::mutex> lock(mu_);
  Open& open = open_[event.job_label];
  open.scope.reset();
  log_.end(open.span);
}

SpanTotals StageRecorder::program_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanTotals totals;
  for (const auto& [label, sink] : sinks_) add_chrome_trace(sink->to_json(), totals);
  return totals;
}

namespace {

double snapshot_count(const tpi::MetricsSnapshot& snap, const std::string& name) {
  const tpi::MetricValue* m = snap.find(name);
  if (m == nullptr) return 0.0;
  switch (m->kind) {
    case tpi::MetricKind::kCounter: return static_cast<double>(m->count);
    case tpi::MetricKind::kGauge: return m->value;
    case tpi::MetricKind::kHistogram: return m->hist.sum;
  }
  return 0.0;
}

const char* const kCountNames[] = {
    "atpg.podem.calls",
    "atpg.podem.aborts",
    "atpg.podem.backtracks",
    "atpg.sim.batches",
    "atpg.sim.faults_graded",
    "atpg.sim.node_evals",
    "atpg.sim.cone_skips",
    "atpg.sim.events",
    "designdb.view_hits",
    "designdb.view_refreshes",
    "designdb.rebuilds",
    "designdb.rebuilds.testability",
    "placement.global_iterations",
    "routing.nets",
    "routing.net_length_um",
    "routing.overflowed_crossings",
    "sta.slow_nodes",
    "sim.good_node_evals",
};

double get(const std::map<std::string, double>& m, const std::string& k) {
  const auto it = m.find(k);
  return it == m.end() ? 0.0 : it->second;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void add_layer_counts(const tpi::MetricsSnapshot& snap, std::map<std::string, double>& out) {
  for (const char* name : kCountNames) out[name] += snapshot_count(snap, name);
}

void report_layers(Report& report, const std::map<std::string, double>& c,
                   const SpanTotals& spans) {
  report.layer("atpg.random_ms", get(spans, "atpg.random"));
  report.layer("atpg.podem_ms", get(spans, "atpg.podem"));
  report.layer("atpg.compaction_ms", get(spans, "atpg.static_compaction"));
  report.layer("placement.global_ms", get(spans, "placement.global"));
  report.layer("placement.legalize_ms", get(spans, "placement.legalize"));
  for (const char* name :
       {"atpg.podem.calls", "atpg.podem.aborts", "atpg.podem.redundant", "atpg.podem.backtracks",
        "atpg.sim.faults_graded", "atpg.sim.node_evals", "atpg.patterns_before_compaction",
        "designdb.rebuilds.testability", "sim.good_node_evals", "placement.global_iterations",
        "routing.overflowed_crossings", "sta.slow_nodes"}) {
    report.layer(name, get(c, name));
  }
  const double calls = get(c, "atpg.podem.calls");
  report.layer("atpg.podem.useful_ratio", ratio(calls - get(c, "atpg.podem.aborts"), calls));
  report.layer("atpg.sim.cone_skip_ratio",
               ratio(get(c, "atpg.sim.cone_skips"), get(c, "atpg.sim.faults_graded")));
  const double hits = get(c, "designdb.view_hits");
  report.layer("designdb.hit_ratio",
               ratio(hits, hits + get(c, "designdb.view_refreshes") + get(c, "designdb.rebuilds")));
}

std::vector<tpi::CircuitProfile> paper_profiles_at(double scale) {
  std::vector<tpi::CircuitProfile> out;
  for (const tpi::CircuitProfile& p : tpi::paper_profiles()) {
    out.push_back(scale == 1.0 ? p : tpi::scaled(p, scale));
    out.back().name = p.name;
  }
  return out;
}

std::string cell_label(const std::string& circuit, double tp_percent) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s/tp=%g", circuit.c_str(), tp_percent);
  return buf;
}

std::string result_line(const tpi::FlowResult& r) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "%s tp=%d cells=%d ffs=%d chains=%d lmax=%d fc=%.17g fe=%.17g pat=%d "
                "tat=%lld area=%.17g wire=%.17g tcp=%.17g",
                r.circuit.c_str(), r.num_test_points, r.num_cells, r.num_ffs, r.num_chains,
                r.max_chain_length, r.fault_coverage_pct, r.fault_efficiency_pct,
                r.saf_patterns, static_cast<long long>(r.tat_cycles), r.chip_area_um2,
                r.wire_length_um, r.sta.worst.valid ? r.sta.worst.t_cp_ps : 0.0);
  return buf;
}

Qor qor_of(const tpi::FlowResult& r) {
  return Qor{r.chip_area_um2, r.wire_length_um, r.sta.worst.valid ? r.sta.worst.t_cp_ps : 0.0};
}

void report_qor(Report& report, const std::vector<Qor>& flows) {
  double area = 0.0, wire = 0.0, fmax = 0.0;
  int timed = 0;
  for (const Qor& q : flows) {
    area += q.chip_area_um2 * 1e-6;
    wire += q.wire_length_um * 1e-3;
    if (q.t_cp_ps > 0.0) {
      fmax += 1e6 / q.t_cp_ps;
      ++timed;
    }
  }
  const double n = flows.empty() ? 1.0 : static_cast<double>(flows.size());
  report.metric("chip_area_mm2", area / n);
  report.metric("wire_length_mm", wire / n);
  report.metric("fmax_mhz", timed > 0 ? fmax / timed : 0.0);
}

bool time_tpi_calls(const tpi::Netlist& nl, SpanLog& log, double& analyze_ms, double& rank_ms) {
  const tpi::CombModel model(nl, tpi::SeqView::kCapture);
  const Clock::time_point t0 = Clock::now();
  const tpi::TestabilityResult t = tpi::analyze_testability(model);
  const Clock::time_point t1 = Clock::now();
  const std::vector<tpi::NetId> ranked =
      tpi::rank_tpi_candidates(nl, t, model, tpi::TpiMethod::kHybrid, {}, 64);
  const Clock::time_point t2 = Clock::now();
  log.add("testability.analyze", nl.name(), -1, t0, t1);
  log.add("tpi.rank", nl.name(), -1, t1, t2);
  analyze_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
  rank_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
  return !ranked.empty();
}

namespace {
double max_rss_mb(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}
}  // namespace

double peak_rss_self_mb() { return max_rss_mb(RUSAGE_SELF); }
double peak_rss_children_mb() { return max_rss_mb(RUSAGE_CHILDREN); }

}  // namespace perfbench
