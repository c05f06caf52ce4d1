// server_mix: the tpi_flow_server daemon (nproc workers) driven by one
// client process over 3 closed-loop connections: each connection submits
// its next job only after the previous one's result came back.
//
// Jobs come in passes of 30 (shuffled per pass from the workload seed):
//   * 20 repeat flows cycling the 3 profiles x {0, 1, 2}% TP at scale 0.05
//     with the full flow — warm DesignCache hits;
//   * 5 flows of a design the cache has not seen (a distinct scale each),
//     which puts generation and cache insertion on the path;
//   * 5 SOC jobs (4 cores, 16-bit TAM) on the server's private SOC pools.
// Latency is timed from sending submit until the result RPC returns.
//
// Checks: every response parses and every job ends "done"; every repeat of
// a config returns the identical flow object; and a sample of flow jobs
// equals a single-shot in-process FlowEngine run of the same FlowConfig.
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <map>
#include <thread>

#include "bench.hpp"
#include "circuits/generator.hpp"
#include "flow/flow_config.hpp"
#include "flow/flow_json.hpp"
#include "library/library.hpp"
#include "server/client.hpp"
#include "util/json.hpp"

namespace perfbench {
namespace {

constexpr int kConnections = 3;
constexpr int kPassJobs = 30;
constexpr double kScale = 0.05;
constexpr double kNewDesignScaleStep = 0.0001;
constexpr int kSetupRepeats = 5;
const char* const kProfiles[] = {"s38417", "circuit1", "p26909"};
constexpr int kTpPercents[] = {0, 1, 2};

enum class Kind { kRepeat, kNewDesign, kSoc };

struct JobSpec {
  Kind kind = Kind::kRepeat;
  std::string key;     ///< identical keys must give identical results
  std::string params;  ///< submit params (a FlowConfig JSON object)
};

struct JobRun {
  JobSpec spec;
  bool ok = false;
  Clock::time_point sent, accepted, returned;  ///< submit sent / answered, result back
  double latency_ms = 0.0;
  double submit_ms = 0.0;
  double queue_wait_ms = 0.0;
  std::string flow;  ///< result.flow, serialised
  std::string trace;  ///< Chrome trace of the job (traced pass only)
};

/// The jobs of pass `pass`: fixed composition, order shuffled by the seed.
/// `new_designs` counts new-design jobs across the server's lifetime so
/// each one asks for a scale no earlier job used.
std::vector<JobSpec> make_pass(std::uint64_t seed, int pass, int& new_designs, bool trace) {
  const std::string flow_seed = std::to_string(mix_seed(seed, 7));
  const std::string common = std::string(", \"seed\": \"") + flow_seed +
                             "\", \"atpg_jobs\": 1" + (trace ? ", \"record_trace\": true" : "");
  std::vector<JobSpec> jobs;
  for (int i = 0; i < kPassJobs; ++i) {
    const int g = pass * kPassJobs + i;  // global job index
    const int cycle = g / 6;
    JobSpec j;
    char buf[256];
    if (g % 6 == 5) {
      const int tp = kTpPercents[cycle % 3];
      j.kind = Kind::kSoc;
      j.key = "soc/tp=" + std::to_string(tp);
      std::snprintf(buf, sizeof buf,
                    "{\"scale\": %g, \"tp_percent\": %d, \"soc\": {\"cores\": 4, "
                    "\"tam_width\": 16}",
                    kScale, tp);
    } else if (g % 6 == 2) {
      const int n = new_designs++;
      const char* profile = kProfiles[n % 3];
      const double scale = kScale + kNewDesignScaleStep * (n + 1);
      j.kind = Kind::kNewDesign;
      std::snprintf(buf, sizeof buf, "{\"profile\": \"%s\", \"scale\": %.6f, \"tp_percent\": 1",
                    profile, scale);
      j.key = buf;
    } else {
      const int r = cycle * 4 + (g % 6 > 2 ? g % 6 - 1 : g % 6);  // repeat-job index
      const char* profile = kProfiles[r % 3];
      const int tp = kTpPercents[(r / 3) % 3];
      j.kind = Kind::kRepeat;
      j.key = cell_label(profile, tp);
      std::snprintf(buf, sizeof buf, "{\"profile\": \"%s\", \"scale\": %g, \"tp_percent\": %d",
                    profile, kScale, tp);
    }
    j.params = buf + common + "}";
    jobs.push_back(std::move(j));
  }
  // Fisher-Yates with a seed-derived stream: the arrival order is part of
  // the workload the seed selects.
  for (int i = kPassJobs - 1; i > 0; --i) {
    const auto k = static_cast<int>(mix_seed(seed, 1000 + pass * kPassJobs + i) %
                                    static_cast<std::uint64_t>(i + 1));
    std::swap(jobs[static_cast<std::size_t>(i)], jobs[static_cast<std::size_t>(k)]);
  }
  return jobs;
}

/// Parsed "result" member of a response line, or null on any error.
bool rpc_result(tpi::FlowClient& client, const char* method, const std::string& params,
                tpi::JsonValue& result, std::string& error) {
  std::string line;
  if (!client.rpc(method, params, &line, &error)) return false;
  const tpi::JsonParseResult parsed = tpi::json_parse(line);
  if (!parsed.ok || !parsed.value.is_object()) {
    error = "unparsable response: " + line.substr(0, 200);
    return false;
  }
  if (const tpi::JsonValue* err = parsed.value.find("error")) {
    error = std::string(method) + " error: " + err->serialise();
    return false;
  }
  const tpi::JsonValue* r = parsed.value.find("result");
  if (r == nullptr || !r->is_object()) {
    error = "response without result: " + line.substr(0, 200);
    return false;
  }
  result = *r;
  return true;
}

JobRun run_job(tpi::FlowClient& client, const JobSpec& spec, bool trace) {
  JobRun run;
  run.spec = spec;
  std::string error;
  tpi::JsonValue result;
  run.sent = Clock::now();
  if (!rpc_result(client, "submit", spec.params, result, error)) {
    std::fprintf(stderr, "[server_mix] %s: %s\n", spec.key.c_str(), error.c_str());
    return run;
  }
  run.accepted = Clock::now();
  run.submit_ms = std::chrono::duration<double, std::milli>(run.accepted - run.sent).count();
  const tpi::JsonValue* job = result.find("job");
  if (job == nullptr || !job->is_number()) return run;
  const std::string job_param = "{\"job\": " + std::to_string(job->as_int());
  if (!rpc_result(client, "result", job_param + ", \"wait\": true}", result, error)) {
    std::fprintf(stderr, "[server_mix] %s: %s\n", spec.key.c_str(), error.c_str());
    return run;
  }
  run.returned = Clock::now();
  run.latency_ms = std::chrono::duration<double, std::milli>(run.returned - run.sent).count();
  const tpi::JsonValue* state = result.find("state");
  const tpi::JsonValue* flow = result.find("flow");
  const tpi::JsonValue* wait = result.find("queue_wait_ns");
  run.queue_wait_ms = wait != nullptr ? wait->as_number() / 1e6 : 0.0;
  run.ok = state != nullptr && state->is_string() && state->as_string() == "done" &&
           flow != nullptr && flow->is_object();
  if (flow != nullptr) run.flow = flow->serialise();
  if (trace && run.ok) {
    if (rpc_result(client, "trace", job_param + "}", result, error)) {
      if (const tpi::JsonValue* t = result.find("trace")) run.trace = t->serialise();
    }
    run.ok = !run.trace.empty();
  }
  return run;
}

/// Run `jobs` over the connections, closed loop; returns the pass wall
/// time. Results land in submission-index order.
double run_pass(std::vector<tpi::FlowClient>& clients, const std::vector<JobSpec>& jobs,
                bool trace, std::vector<JobRun>& out) {
  out.assign(jobs.size(), JobRun{});
  std::atomic<std::size_t> next{0};
  const Clock::time_point t0 = Clock::now();
  std::vector<std::thread> threads;
  for (tpi::FlowClient& client : clients) {
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < jobs.size(); i = next++) {
        out[i] = run_job(client, jobs[i], trace);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return ms_since(t0) / 1000.0;
}

struct Server {
  pid_t pid = -1;
  std::string socket;
};

Server start_server(const Options& opts, const std::string& socket) {
  ::unlink(socket.c_str());
  Server s;
  s.socket = socket;
  const std::string workers = std::to_string(opts.nproc);
  s.pid = ::fork();
  if (s.pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
    ::execl(opts.server_bin.c_str(), opts.server_bin.c_str(), "--socket", socket.c_str(),
            "--workers", workers.c_str(), static_cast<char*>(nullptr));
    std::_Exit(127);
  }
  return s;
}

bool connect_all(const Server& s, std::vector<tpi::FlowClient>& clients) {
  clients = std::vector<tpi::FlowClient>(kConnections);
  for (tpi::FlowClient& c : clients) {
    bool up = false;
    for (int i = 0; i < 1000 && !up; ++i) {
      up = c.connect(s.socket);
      if (!up) ::usleep(10 * 1000);
    }
    if (!up) return false;
  }
  return true;
}

/// Ask the daemon to shut down and reap it (killing it if it hangs).
bool stop_server(Server& s, std::vector<tpi::FlowClient>& clients) {
  if (s.pid <= 0) return true;
  std::string line;
  if (!clients.empty() && clients.front().connected()) {
    clients.front().rpc("shutdown", "{}", &line);
  }
  clients.clear();
  int status = 0;
  for (int i = 0; i < 500; ++i) {
    if (::waitpid(s.pid, &status, WNOHANG) == s.pid) {
      s.pid = -1;
      return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }
    ::usleep(20 * 1000);
  }
  ::kill(s.pid, SIGKILL);
  ::waitpid(s.pid, &status, 0);
  s.pid = -1;
  return false;
}

/// The distinct configs: each repeat config and SOC config once, plus one
/// unseen design — the warm-up set.
std::vector<JobSpec> warmup_jobs(std::uint64_t seed) {
  int new_designs = 0;
  std::vector<JobSpec> all = make_pass(seed, 0, new_designs, false);
  std::vector<JobSpec> out;
  std::map<std::string, bool> seen;
  for (const JobSpec& j : all) {
    if (j.kind == Kind::kNewDesign || seen[j.key]) continue;
    seen[j.key] = true;
    out.push_back(j);
  }
  return out;
}

/// Deterministic counters of a flow result JSON's "metrics" object.
void add_flow_counts(const std::string& flow_json, std::map<std::string, double>& counts) {
  const tpi::JsonParseResult flow = tpi::json_parse(flow_json);
  const tpi::JsonValue* metrics = flow.ok ? flow.value.find("metrics") : nullptr;
  if (metrics == nullptr || !metrics->is_object()) return;
  tpi::MetricsSnapshot snap;
  for (const auto& [name, value] : metrics->as_object()) {
    tpi::MetricValue m;
    m.name = name;
    if (value.is_number()) {
      m.count = static_cast<std::uint64_t>(value.as_number());
    } else if (const tpi::JsonValue* sum = value.find("sum")) {
      m.kind = tpi::MetricKind::kHistogram;
      m.hist.sum = sum->as_number();
    }
    snap.metrics.push_back(std::move(m));
  }
  add_layer_counts(snap, counts);
}

/// Number member `key` of an object (0 when absent).
double number_at(const tpi::JsonValue& object, const char* key) {
  const tpi::JsonValue* n = object.find(key);
  return n != nullptr && n->is_number() ? n->as_number() : 0.0;
}

tpi::JsonValue parsed(const std::string& json) { return tpi::json_parse(json).value; }

}  // namespace

void run_server_mix(const Options& opts, Report& report) {
  const std::string socket = opts.state_dir + "/server_mix.sock";
  Server server;
  std::vector<tpi::FlowClient> clients;
  std::vector<double> setup_s;
  const std::vector<JobSpec> warmup = warmup_jobs(opts.seed);
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (i > 0) report.check(stop_server(server, clients), "server exits 0 after shutdown");
    const Clock::time_point t0 = Clock::now();
    server = start_server(opts, socket);
    if (!connect_all(server, clients)) {
      report.check(false, "server came up on " + socket);
      stop_server(server, clients);
      return;
    }
    std::vector<JobRun> runs;
    run_pass(clients, warmup, false, runs);
    for (const JobRun& r : runs) report.op(r.ok, "warm-up job " + r.spec.key);
    setup_s.push_back(ms_since(t0) / 1000.0);
  }
  report.metric("setup_s", median(setup_s));

  // Timed passes until the measuring window is used up (at least one).
  int new_designs = 0;
  std::vector<std::vector<JobRun>> passes;
  std::vector<double> pass_wall_s;
  const Clock::time_point window = Clock::now();
  do {
    const std::vector<JobSpec> jobs =
        make_pass(opts.seed, static_cast<int>(passes.size()), new_designs, false);
    passes.emplace_back();
    pass_wall_s.push_back(run_pass(clients, jobs, false, passes.back()));
  } while (ms_since(window) < opts.seconds * 1000.0);

  // ---- output checks ----
  std::map<std::string, std::string> first_flow;  // key -> flow JSON
  std::vector<double> flow_ms, soc_ms;
  long jobs_done = 0;
  const auto check_runs = [&](const std::vector<JobRun>& runs) {
    for (const JobRun& r : runs) {
      bool ok = r.ok;
      if (ok) {
        const auto [it, fresh] = first_flow.emplace(r.spec.key, r.flow);
        ok = fresh || it->second == r.flow;
      }
      report.op(ok, r.spec.key + ": job done with the same flow as every repeat");
    }
  };
  for (const std::vector<JobRun>& runs : passes) {
    check_runs(runs);
    for (const JobRun& r : runs) {
      (r.spec.kind == Kind::kSoc ? soc_ms : flow_ms).push_back(r.latency_ms);
      ++jobs_done;
    }
  }
  Digest digest;
  std::vector<Qor> qor;
  for (const JobRun& r : passes.front()) {
    digest.add(r.spec.key);
    digest.add(r.flow);
    if (r.spec.kind == Kind::kRepeat) {
      add_flow_counts(r.flow, report.counts);
      const tpi::JsonValue flow = parsed(r.flow);
      qor.push_back(Qor{number_at(flow, "chip_area_um2"), number_at(flow, "wire_length_um"),
                        number_at(flow, "t_cp_ps")});
    }
  }
  report.digest = digest.hex();

  double total_s = 0.0;
  for (const double s : pass_wall_s) total_s += s;
  report.metric("wall_s", median(pass_wall_s));
  report.metric("jobs_per_s", static_cast<double>(jobs_done) / total_s);
  report.metric("job_p50_ms", quantile(flow_ms, 0.5));
  report.metric("job_p90_ms", quantile(flow_ms, 0.9));
  report_qor(report, qor);
  std::printf("server_mix: %zu passes, %ld jobs (%zu flow, %zu soc) over %d connections to "
              "%d workers\n",
              passes.size(), jobs_done, flow_ms.size(), soc_ms.size(), kConnections, opts.nproc);
  std::printf("pass walls (s):");
  for (const double w : pass_wall_s) std::printf(" %.3f", w);
  std::printf("\n");

  // Sample: flow jobs of the first pass against single-shot in-process
  // FlowEngine runs of the same FlowConfig (one per distinct config, up
  // to nproc at a time).
  const std::unique_ptr<tpi::CellLibrary> lib = tpi::make_phl130_library();
  std::vector<const JobRun*> sample;
  std::map<std::string, bool> sampled;
  for (const JobRun& r : passes.front()) {
    if (r.spec.kind == Kind::kSoc || sampled[r.spec.key] || sample.size() >= 4) continue;
    sampled[r.spec.key] = true;
    sample.push_back(&r);
  }
  std::vector<std::string> single_shot(sample.size());
  {
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < sample.size(); ++i) {
      threads.emplace_back([&, i] {
        tpi::FlowConfig cfg;
        std::string error;
        if (!tpi::FlowConfig::from_json(sample[i]->spec.params, tpi::FlowConfig::from_env(), cfg,
                                        &error)) {
          single_shot[i] = "config error: " + error;
          return;
        }
        try {
          tpi::FlowEngine engine(*lib, cfg);
          single_shot[i] = tpi::flow_result_to_json(engine.run(cfg.stages));
        } catch (const std::exception& e) {
          single_shot[i] = std::string("flow error: ") + e.what();
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (std::size_t i = 0; i < sample.size(); ++i) {
    report.check(single_shot[i] == sample[i]->flow,
                 sample[i]->spec.key + ": server flow equals a single-shot FlowEngine run");
  }

  if (opts.trace) {
    // ---- traced run: per-layer numbers ----
    std::vector<JobRun> traced;
    const double traced_s = run_pass(
        clients, make_pass(opts.seed, static_cast<int>(passes.size()), new_designs, true), true,
        traced);
    check_runs(traced);
    SpanLog log;
    SpanTotals spans;
    std::vector<double> t_wait, t_submit, t_soc;
    std::map<std::string, double> counts;
    for (const JobRun& r : traced) {
      const int job = log.add("bench.job", r.spec.key, -1, r.sent, r.returned);
      log.add("rpc.submit", r.spec.key, job, r.sent, r.accepted);
      log.add("rpc.result", r.spec.key, job, r.accepted, r.returned);
      add_chrome_trace(r.trace, spans);
      t_wait.push_back(r.queue_wait_ms);
      t_submit.push_back(r.submit_ms);
      if (r.spec.kind == Kind::kSoc) {
        t_soc.push_back(r.latency_ms);
      } else {
        add_flow_counts(r.flow, counts);
      }
    }
    report_layers(report, counts, spans);
    double stage_total = 0.0;
    for (const tpi::Stage st : tpi::kAllStages) {
      if (st == tpi::Stage::kVerify) continue;
      const double ms = spans[tpi::stage_name(st)];
      report.layer(std::string("flow.") + tpi::stage_name(st) + "_ms", ms);
      stage_total += ms;
    }
    report.layer("atpg.stage_share_pct",
                 100.0 * spans["reorder_atpg"] / (stage_total > 0.0 ? stage_total : 1.0));
    report.layer("server.queue_wait_p50_ms", quantile(t_wait, 0.5));
    report.layer("server.queue_wait_p90_ms", quantile(t_wait, 0.9));
    report.layer("server.submit_rpc_p50_ms", quantile(t_submit, 0.5));
    report.layer("server.soc_job_p50_ms", quantile(t_soc, 0.5));
    report.layer("bench.trace_overhead_pct", 100.0 * (traced_s / median(pass_wall_s) - 1.0));
    report.layer("bench.job_samples", static_cast<double>(flow_ms.size()));

    std::string error;
    tpi::JsonValue stats, metrics;
    report.check(rpc_result(clients.front(), "stats", "{}", stats, error) &&
                     rpc_result(clients.front(), "metrics", "{\"format\": \"json\"}", metrics,
                                error),
                 "stats and metrics RPCs answer: " + error);
    const double hits = number_at(stats, "server.cache.hits");
    report.layer("server.cache.hit_ratio",
                 hits / std::max(1.0, hits + number_at(stats, "server.cache.misses")));
    const tpi::JsonValue* registry = metrics.find("metrics");
    const tpi::JsonValue* soc_tat =
        registry != nullptr ? registry->find("server.soc.chip_tat_cycles") : nullptr;
    report.layer("server.jobs_rejected",
                 registry != nullptr ? number_at(*registry, "server.jobs_rejected") : 0.0);
    report.layer("qor.soc_chip_tat_cycles", soc_tat != nullptr ? number_at(*soc_tat, "p50") : 0.0);

    double fc = 0.0, fe = 0.0, tat = 0.0;
    int flows = 0;
    for (const JobRun& r : passes.front()) {
      if (r.spec.kind == Kind::kSoc) continue;
      const tpi::JsonValue flow = parsed(r.flow);
      fc += number_at(flow, "fault_coverage_pct");
      fe += number_at(flow, "fault_efficiency_pct");
      tat += number_at(flow, "tat_cycles");
      ++flows;
    }
    report.layer("qor.fault_coverage_pct", fc / std::max(1, flows));
    report.layer("qor.fault_efficiency_pct", fe / std::max(1, flows));
    report.layer("qor.tat_cycles", tat);

    double generate_ms = 0.0, analyze_ms = 0.0, rank_ms = 0.0;
    for (tpi::CircuitProfile& p : paper_profiles_at(kScale)) {
      const Clock::time_point t0 = Clock::now();
      const std::unique_ptr<tpi::Netlist> nl = tpi::generate_circuit(*lib, p);
      generate_ms += ms_since(t0);
      report.check(time_tpi_calls(*nl, log, analyze_ms, rank_ms),
                   p.name + ": TPI ranking returns candidates");
    }
    report.layer("circuits.generate_ms", generate_ms);
    report.layer("testability.analyze_ms", analyze_ms);
    report.layer("tpi.rank_ms", rank_ms);
    for (const char* name : {"atpg.podem.abort_ms", "atpg.podem.redundant_ms",
                             "flow.stage_cover_pct", "sweep.parallel_speedup",
                             "sweep.cell_p50_ms", "sweep.cell_max_ms"}) {
      report.layer(name, 0.0);
    }
    log.write(opts);
  }
  report.check(stop_server(server, clients), "server exits 0 after shutdown");
}

}  // namespace perfbench
