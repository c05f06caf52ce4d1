#include "flow/trace_observer.hpp"

#include "util/log.hpp"
#include "util/trace.hpp"

namespace tpi {
namespace {

// Instant-marker names must outlive the trace log (the tracer stores the
// pointer), so each stage boundary gets its own literal.
constexpr const char* begin_mark(Stage s) {
  switch (s) {
    case Stage::kTpiScan: return "flow.tpi_scan.begin";
    case Stage::kFloorplanPlace: return "flow.floorplan_place.begin";
    case Stage::kReorderAtpg: return "flow.reorder_atpg.begin";
    case Stage::kEco: return "flow.eco.begin";
    case Stage::kExtract: return "flow.extract.begin";
    case Stage::kSta: return "flow.sta.begin";
    case Stage::kVerify: return "flow.verify.begin";
  }
  return "flow.stage.begin";
}

}  // namespace

void TracingFlowObserver::on_stage_begin(const StageEvent& event) {
  begun_.fetch_add(1, std::memory_order_relaxed);
  trace_instant(begin_mark(event.stage));
  log_debug() << "stage " << event.name << " begin: cells=" << event.num_cells
              << " nets=" << event.num_nets;
}

void TracingFlowObserver::on_stage_end(const StageEvent& event) {
  ended_.fetch_add(1, std::memory_order_relaxed);
  log_debug() << "stage " << event.name << " end: " << event.wall_ms
              << "ms cells=" << event.num_cells << " nets=" << event.num_nets;
}

}  // namespace tpi
