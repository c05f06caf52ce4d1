#include "tpi/tpi.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "netlist/design_db.hpp"
#include "util/log.hpp"

namespace tpi {
namespace {

// Net is a legal TSFF site: driven, not a clock, not scan infrastructure,
// and carrying functional logic (some logic sink or a PO).
bool legal_site(const Netlist& nl, NetId net_id) {
  const Net& net = nl.net(net_id);
  if (!net.driver.valid() && !net.driven_by_pi()) return false;
  if (nl.is_clock_net(net_id)) return false;
  if (net.driver.valid()) {
    const CellSpec* spec = nl.cell(net.driver.cell).spec;
    if (spec->func == CellFunc::kTsff) return false;  // already a test point
    if (spec->func == CellFunc::kTie0 || spec->func == CellFunc::kTie1) return false;
  }
  bool has_logic_load = !net.po_sinks.empty();
  for (const PinRef& s : net.sinks) {
    const CellSpec* spec = nl.cell(s.cell).spec;
    const bool scan_pin = s.pin == spec->ti_pin || s.pin == spec->te_pin ||
                          s.pin == spec->tr_pin ||
                          spec->pins[static_cast<std::size_t>(s.pin)].is_clock;
    if (!scan_pin) has_logic_load = true;
  }
  return has_logic_load;
}

/// §3.1 step 2 search budget: the BFS for the nearest flip-flop's clock
/// stops after visiting this many nets. In practice a sequential element
/// sits within a handful of hops of any legal TSFF site, so the cap only
/// triggers on pathological fan-out; the fallback is the first declared
/// clock domain.
constexpr int kNearestClockMaxVisits = 4000;

/// BFS scratch, hoisted by the caller across sites so the per-site search
/// reuses one allocation instead of a fresh queue + hash set each time.
struct NearestClockScratch {
  std::vector<NetId> frontier;  ///< head-indexed FIFO (like levelize)
  std::unordered_set<NetId> seen;
};

// §3.1 step 2: the clock for a new TSFF is the domain of the nearest
// flip-flop, found by BFS through the netlist from the insertion site.
NetId nearest_clock(const Netlist& nl, NetId site, NearestClockScratch& scratch) {
  std::vector<NetId>& frontier = scratch.frontier;
  std::unordered_set<NetId>& seen = scratch.seen;
  frontier.clear();
  seen.clear();
  frontier.push_back(site);
  seen.insert(site);
  for (std::size_t head = 0;
       head < frontier.size() && head < static_cast<std::size_t>(kNearestClockMaxVisits);
       ++head) {
    const NetId net_id = frontier[head];
    const Net& net = nl.net(net_id);
    auto visit_cell = [&](CellId cid) -> NetId {
      const CellInst& inst = nl.cell(cid);
      if (inst.spec->sequential && inst.spec->clock_pin >= 0) {
        const NetId ck = inst.conn[static_cast<std::size_t>(inst.spec->clock_pin)];
        if (ck != kNoNet) return ck;
      }
      return kNoNet;
    };
    // Forward through sinks, backward through the driver.
    for (const PinRef& s : net.sinks) {
      const NetId ck = visit_cell(s.cell);
      if (ck != kNoNet) return ck;
      const NetId out = nl.cell(s.cell).output_net();
      if (out != kNoNet && seen.insert(out).second) frontier.push_back(out);
    }
    if (net.driver.valid()) {
      const NetId ck = visit_cell(net.driver.cell);
      if (ck != kNoNet) return ck;
      for (const NetId in : nl.cell(net.driver.cell).conn) {
        if (in != kNoNet && in != net_id && seen.insert(in).second) frontier.push_back(in);
      }
    }
  }
  // Fallback: the first declared clock domain.
  if (!nl.clock_pis().empty()) return nl.pi_net(nl.clock_pis().front());
  return kNoNet;
}

NetId get_or_create_control_pi(Netlist& nl, const std::string& name) {
  const NetId existing = nl.find_net(name);
  if (existing != kNoNet) return existing;
  const int pi = nl.add_primary_input(name);
  return nl.pi_net(pi);
}

}  // namespace

namespace {

// Gain of a hypothetical test point on net X (Seiss-style gradient):
//  * control gain — re-evaluate COP signal probabilities in X's fanout
//    cone with p1(X) forced to 0.5 and count nets whose hardest stuck-at
//    fault crosses from random-resistant to random-detectable;
//  * observation gain — nets in X's fan-in whose faults are activatable
//    but unobservable today become observable at the TSFF's D input.
class GainEvaluator {
 public:
  GainEvaluator(const CombModel& model, const TestabilityResult& t)
      : model_(model), t_(t) {
    p1_override_.assign(model.num_nets(), 0.0f);
    stamp_.assign(model.num_nets(), 0);
  }

  double gain(NetId x) {
    constexpr float kRandomTh = 1e-3f;  // random-detectable threshold
    ++epoch_;
    double g = 0.0;

    // ---- control gain over the fanout cone ----
    set_p1(x, 0.5f);
    // Collect cone node indices (bounded), then process in topo order.
    cone_.clear();
    std::vector<NetId> frontier{x};
    std::unordered_set<int> seen_nodes;
    for (std::size_t head = 0; head < frontier.size() && cone_.size() < 500; ++head) {
      for (const int reader : model_.readers_of(frontier[head])) {
        if (!seen_nodes.insert(reader).second) continue;
        cone_.push_back(reader);
        const NetId out = model_.nodes()[static_cast<std::size_t>(reader)].out;
        if (out != kNoNet) frontier.push_back(out);
      }
    }
    std::sort(cone_.begin(), cone_.end());
    for (const int ni : cone_) {
      const CombNode& node = model_.nodes()[static_cast<std::size_t>(ni)];
      if (node.out == kNoNet) continue;
      // Evaluate with overridden inputs where present.
      float in_p1[6];
      float* base = const_cast<float*>(t_.p1.data());
      // Build a tiny shadow: copy inputs through the override lookup.
      CombNode shadow = node;
      for (int i = 0; i < node.num_inputs; ++i) in_p1[i] = p1_of(node.in[i]);
      float sel_p1 = node.sel != kNoNet ? p1_of(node.sel) : 0.5f;
      (void)base;
      const float p_new = eval_with(shadow, in_p1, sel_p1);
      set_p1(node.out, p_new);
      const auto out = static_cast<std::size_t>(node.out);
      const float obs = t_.obs[out];
      const float old_dp = std::min(t_.p1[out], 1.0f - t_.p1[out]) * obs;
      const float new_dp = std::min(p_new, 1.0f - p_new) * obs;
      if (old_dp < kRandomTh && new_dp >= kRandomTh) g += 1.0;
    }
    // X's own faults become fully testable (control + observe).
    {
      const auto xi = static_cast<std::size_t>(x);
      const float old_dp = std::min(t_.p1[xi], 1.0f - t_.p1[xi]) * t_.obs[xi];
      if (old_dp < kRandomTh) g += 1.0;
    }

    // ---- observation gain over the fan-in cone ----
    std::vector<NetId> back{x};
    std::unordered_set<NetId> seen_nets{x};
    for (std::size_t head = 0; head < back.size() && back.size() < 300; ++head) {
      const int prod = model_.producer_of(back[head]);
      if (prod < 0) continue;
      const CombNode& node = model_.nodes()[static_cast<std::size_t>(prod)];
      for (int i = 0; i < node.num_inputs + (node.sel != kNoNet ? 1 : 0); ++i) {
        const NetId in = i < node.num_inputs ? node.in[i] : node.sel;
        if (in == kNoNet || !seen_nets.insert(in).second) continue;
        const auto ii = static_cast<std::size_t>(in);
        const float activ = std::min(t_.p1[ii], 1.0f - t_.p1[ii]);
        if (t_.obs[ii] * activ < kRandomTh && activ >= kRandomTh) {
          g += 0.5;  // observation-only gain counts less than control
          back.push_back(in);
        }
      }
    }
    return g;
  }

 private:
  float p1_of(NetId net) const {
    const auto i = static_cast<std::size_t>(net);
    return stamp_[i] == epoch_ ? p1_override_[i] : t_.p1[i];
  }
  void set_p1(NetId net, float v) {
    const auto i = static_cast<std::size_t>(net);
    p1_override_[i] = v;
    stamp_[i] = epoch_;
  }
  static float eval_with(const CombNode& node, const float* in_p1, float sel_p1) {
    // cop_node_p1 reads by net id; build a small indirection instead.
    // Re-implement inline over the packed inputs:
    std::vector<float> scratch(8, 0.5f);
    CombNode local = node;
    for (int i = 0; i < node.num_inputs; ++i) {
      local.in[i] = static_cast<NetId>(i);
      scratch[static_cast<std::size_t>(i)] = in_p1[i];
    }
    if (node.sel != kNoNet) {
      local.sel = static_cast<NetId>(6);
      scratch[6] = sel_p1;
    }
    return cop_node_p1(local, scratch.data());
  }

  const CombModel& model_;
  const TestabilityResult& t_;
  std::vector<float> p1_override_;
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<int> cone_;
};

}  // namespace

std::vector<NetId> rank_tpi_candidates(const Netlist& nl, const TestabilityResult& t,
                                       const CombModel& model, TpiMethod method,
                                       const std::unordered_set<NetId>& excluded,
                                       std::size_t max_candidates) {
  struct Scored {
    NetId net;
    double score;
  };
  std::vector<Scored> scored;

  if (method == TpiMethod::kHybrid) {
    // Shortlist the random-resistant nets, then rank them by explicit
    // testability gain (control + observation). Hard nets with no
    // measurable gain still rank by hardness so the requested test-point
    // budget is always spent (ties broken toward the hardest lines).
    constexpr float kHardTh = 2e-3f;
    std::vector<NetId> shortlist;
    for (std::size_t n = 0; n < nl.num_nets(); ++n) {
      const NetId net = static_cast<NetId>(n);
      if (excluded.contains(net) || !legal_site(nl, net)) continue;
      if (t.detect_prob_min(net) < kHardTh) shortlist.push_back(net);
      if (shortlist.size() >= 12000) break;
    }
    GainEvaluator eval(model, t);
    for (const NetId net : shortlist) {
      const double g = eval.gain(net);
      const double dp = static_cast<double>(t.detect_prob_min(net)) + 1e-12;
      const double hardness = -std::log2(dp);  // in (0, 40]
      scored.push_back(Scored{net, -g - hardness / 64.0});
    }
    if (scored.size() < max_candidates) {
      // Not enough random-resistant nets: top up with the hardest of the
      // remaining legal sites so the requested budget is honoured.
      for (std::size_t n = 0; n < nl.num_nets() && scored.size() < 4 * max_candidates;
           ++n) {
        const NetId net = static_cast<NetId>(n);
        if (excluded.contains(net) || !legal_site(nl, net)) continue;
        if (t.detect_prob_min(net) < kHardTh) continue;  // already scored
        scored.push_back(Scored{net, static_cast<double>(t.detect_prob_min(net))});
      }
    }
  } else {
    for (std::size_t n = 0; n < nl.num_nets(); ++n) {
      const NetId net = static_cast<NetId>(n);
      if (excluded.contains(net) || !legal_site(nl, net)) continue;
      double score = 0.0;
      if (method == TpiMethod::kCop) {
        score = t.detect_prob_min(net);
      } else {
        // SCOAP: hardest line = largest observability + controllability.
        const float hard = t.co[n] + std::min(t.cc0[n], t.cc1[n]) +
                           0.25f * std::max(t.cc0[n], t.cc1[n]);
        score = -static_cast<double>(std::min(hard, 4.0f * kScoapInf));
      }
      scored.push_back(Scored{net, score});
    }
  }

  std::stable_sort(scored.begin(), scored.end(),
                   [](const Scored& a, const Scored& b) { return a.score < b.score; });
  std::vector<NetId> out;
  out.reserve(std::min(max_candidates, scored.size()));
  for (const Scored& s : scored) {
    if (out.size() >= max_candidates) break;
    out.push_back(s.net);
  }
  return out;
}

TpiReport insert_test_points(DesignDB& db, const TpiOptions& opts) {
  TpiReport report;
  if (opts.num_test_points <= 0) return report;
  Netlist& nl = db.netlist();
  const CellSpec* tsff = nl.library().by_name("TSFF_X1");
  assert(tsff != nullptr);

  const NetId te = get_or_create_control_pi(nl, opts.te_pi_name);
  const NetId tr = get_or_create_control_pi(nl, opts.tr_pi_name);

  // BFS scratch shared across every site of every round (satellite: one
  // allocation instead of a queue + hash set per insertion).
  NearestClockScratch scratch;
  std::vector<NetId> changed_nets;

  const int rounds = std::max(1, opts.rounds);
  int remaining = opts.num_test_points;
  for (int round = 0; round < rounds && remaining > 0; ++round) {
    // Step 1 (§3.1): the testability analyses over the current netlist —
    // pulled from the design database, so a round that follows an
    // edit-free round reuses the previous views instead of rebuilding
    // (previously inserted TSFFs are scan-cell boundaries in this view).
    const std::uint64_t round_start = nl.version();
    const CombModel& model = db.comb_model(SeqView::kCapture);
    const TestabilityResult& t = db.testability(SeqView::kCapture);

    const int batch = std::min(remaining, (opts.num_test_points + rounds - 1) / rounds);
    std::unordered_set<NetId> excluded = opts.excluded_nets;
    const auto ranked =
        rank_tpi_candidates(nl, t, model, opts.method, excluded, static_cast<std::size_t>(batch));
    if (ranked.empty()) break;

    for (const NetId site : ranked) {
      // Step 3 (§3.1): insert the TSFF and reconnect the net's loads.
      const std::string name = "tp" + std::to_string(report.test_points.size());
      const CellId tp = nl.add_cell(tsff, name);
      nl.insert_cell_in_net(site, tp, tsff->d_pin);
      nl.connect(tp, tsff->te_pin, te);
      nl.connect(tp, tsff->tr_pin, tr);
      // Step 2 (§3.1): clock-domain assignment.
      const NetId ck = nearest_clock(nl, site, scratch);
      if (ck != kNoNet) nl.connect(tp, tsff->clock_pin, ck);
      report.test_points.push_back(tp);
      report.sites.push_back(site);
      --remaining;
      if (remaining == 0) break;
    }
    ++report.rounds_run;
    // Journal what this round touched: -1 when the bounded edit journal
    // overflowed and the precise net set is gone.
    changed_nets.clear();
    const bool complete = nl.nets_changed_since(round_start, changed_nets);
    report.nets_changed_per_round.push_back(
        complete ? static_cast<int>(changed_nets.size()) : -1);
  }
  report.candidates_rejected_excluded = static_cast<int>(opts.excluded_nets.size());
  log_info() << "TPI: inserted " << report.test_points.size() << " test points in "
             << report.rounds_run << " rounds";
  return report;
}

}  // namespace tpi
