#include "netlist/netlist.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "netlist/levelize.hpp"

namespace tpi {
namespace {

/// Journal capacity: enough to cover many TPI rounds of edits between two
/// nets_changed_since() queries, small enough (~100 KB) to keep the journal
/// an O(1) memory feature even across full circuit generation.
constexpr std::size_t kEditJournalCap = 8192;

}  // namespace

Netlist::Netlist(const CellLibrary* lib, std::string name)
    : lib_(lib), name_(std::move(name)) {
  assert(lib_ != nullptr);
}

void Netlist::commit_edit() {
  ++version_;
  // A structure (topo) change always implies a comb-model change: the
  // CombModel's node array is derived from the topological order.
  unsigned bits = pending_dirty_;
  if (bits & kDirtyTopoApp) bits |= kDirtyCombApp;
  if (bits & kDirtyTopoCap) bits |= kDirtyCombCap;
  if (bits & kDirtyTopoApp) structure_version_[0] = version_;
  if (bits & kDirtyTopoCap) structure_version_[1] = version_;
  if (bits & kDirtyCombApp) comb_version_[0] = version_;
  if (bits & kDirtyCombCap) comb_version_[1] = version_;
  pending_dirty_ = 0;

  for (const NetId n : pending_nets_) journal_.push_back(NetEdit{version_, n});
  pending_nets_.clear();
  if (journal_.size() > kEditJournalCap) {
    const std::size_t drop = journal_.size() / 2;
    journal_floor_ = journal_[drop - 1].version;
    journal_.erase(journal_.begin(), journal_.begin() + static_cast<std::ptrdiff_t>(drop));
  }
}

bool Netlist::nets_changed_since(std::uint64_t since, std::vector<NetId>& out) const {
  if (since < journal_floor_) return false;
  out.clear();
  for (const NetEdit& e : journal_) {
    if (e.version > since) out.push_back(e.net);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return true;
}

void Netlist::drop_edit_journal() {
  journal_ = {};
  journal_floor_ = version_;
}

// Classify a connect/disconnect on `pin` of a cell with `spec`. Mirrors
// exactly what levelize()/CombModel read from the netlist:
//  * clock pins never carry logic edges, but clock routing conservatively
//    invalidates comb models (input_nets excludes clock PI nets);
//  * scan pins (TI/TE/TR) are invisible to both views;
//  * pins of cells inside the graph change the topological order;
//  * D/Q pins of boundary FFs are pseudo-PO/pseudo-PI nets of the comb
//    model but do not affect the order;
//  * tie outputs feed the comb model's constant lists;
//  * clock-buffer and filler pins are invisible (levelize only follows
//    edges whose driver is in the graph).
unsigned Netlist::pin_edit_dirty_bits(const CellSpec& spec, int pin) const {
  const PinSpec& ps = spec.pins[static_cast<std::size_t>(pin)];
  if (ps.is_clock) return kDirtyCombApp | kDirtyCombCap;
  if (pin == spec.ti_pin || pin == spec.te_pin || pin == spec.tr_pin) return 0;
  const bool is_out = ps.dir == PinDir::kOutput;
  unsigned bits = 0;
  for (const SeqView view : {SeqView::kApplication, SeqView::kCapture}) {
    const unsigned topo_bit =
        view == SeqView::kApplication ? kDirtyTopoApp : kDirtyTopoCap;
    const unsigned comb_bit =
        view == SeqView::kApplication ? kDirtyCombApp : kDirtyCombCap;
    if (in_comb_graph(spec, view)) {
      if (is_out || is_logic_input_pin(spec, pin)) bits |= topo_bit;
    } else if (spec.sequential) {
      if (is_out || pin == spec.d_pin) bits |= comb_bit;
    } else if (spec.func == CellFunc::kTie0 || spec.func == CellFunc::kTie1) {
      if (is_out) bits |= comb_bit;
    }
  }
  return bits;
}

NetId Netlist::add_net(std::string net_name) {
  EditScope edit(*this);
  const NetId id = static_cast<NetId>(nets_.size());
  net_index_.emplace(net_name, id);
  nets_.push_back(Net{std::move(net_name), {}, -1, {}, {}});
  // A fresh net is invisible to every view until something connects to it:
  // cached views only need padding, not a rebuild.
  return id;
}

CellId Netlist::add_cell(const CellSpec* spec, std::string cell_name) {
  assert(spec != nullptr);
  EditScope edit(*this);
  const CellId id = static_cast<CellId>(cells_.size());
  cell_index_.emplace(cell_name, id);
  CellInst inst;
  inst.name = std::move(cell_name);
  inst.spec = spec;
  inst.conn.assign(spec->pins.size(), kNoNet);
  cells_.push_back(std::move(inst));
  switch (spec->func) {
    case CellFunc::kFiller:
    case CellFunc::kClkBuf:
    case CellFunc::kTie0:
    case CellFunc::kTie1:
      // Outside both graphs (a tie only matters once its output connects).
      break;
    case CellFunc::kTsff:
      ++num_tsffs_;
      // Transparent (in-graph) in application view, boundary in capture.
      mark_dirty(kDirtyTopoApp | kDirtyCombCap);
      break;
    default:
      if (spec->sequential) {
        // Boundary in both views; CombModel::boundary_ffs() lists every
        // sequential cell, connected or not.
        mark_dirty(kDirtyCombApp | kDirtyCombCap);
      } else {
        // A combinational cell enters the order immediately (level 0 while
        // unconnected).
        mark_dirty(kDirtyTopoApp | kDirtyTopoCap);
      }
      break;
  }
  return id;
}

void Netlist::connect(CellId cell_id, int pin, NetId net_id) {
  EditScope edit(*this);
  CellInst& inst = cell(cell_id);
  assert(pin >= 0 && static_cast<std::size_t>(pin) < inst.conn.size());
  assert(inst.conn[static_cast<std::size_t>(pin)] == kNoNet);
  inst.conn[static_cast<std::size_t>(pin)] = net_id;
  Net& n = net(net_id);
  if (inst.spec->pins[static_cast<std::size_t>(pin)].dir == PinDir::kOutput) {
    assert(!n.driver.valid() && n.pi_index < 0);
    n.driver = PinRef{cell_id, pin};
  } else {
    n.sinks.push_back(PinRef{cell_id, pin});
  }
  mark_dirty(pin_edit_dirty_bits(*inst.spec, pin));
  touch_net(net_id);
}

void Netlist::disconnect(CellId cell_id, int pin) {
  CellInst& inst = cell(cell_id);
  const NetId net_id = inst.conn[static_cast<std::size_t>(pin)];
  if (net_id == kNoNet) return;  // no-op: no version bump
  EditScope edit(*this);
  inst.conn[static_cast<std::size_t>(pin)] = kNoNet;
  Net& n = net(net_id);
  const PinRef ref{cell_id, pin};
  if (n.driver == ref) {
    n.driver = PinRef{};
  } else {
    n.sinks.erase(std::remove(n.sinks.begin(), n.sinks.end(), ref), n.sinks.end());
  }
  mark_dirty(pin_edit_dirty_bits(*inst.spec, pin));
  touch_net(net_id);
}

int Netlist::add_primary_input(std::string pi_name) {
  EditScope edit(*this);
  const int idx = static_cast<int>(pi_names_.size());
  NetId n = add_net(pi_name);
  net(n).pi_index = idx;
  pi_names_.push_back(std::move(pi_name));
  pi_nets_.push_back(n);
  // New controllable input: CombModel::input_nets() changes; the
  // topological order does not (no cell edges involved).
  mark_dirty(kDirtyCombApp | kDirtyCombCap);
  touch_net(n);
  return idx;
}

int Netlist::add_primary_output(std::string po_name, NetId net_id) {
  EditScope edit(*this);
  const int idx = static_cast<int>(po_names_.size());
  po_names_.push_back(std::move(po_name));
  po_nets_.push_back(net_id);
  net(net_id).po_sinks.push_back(idx);
  // New observe point: observe_nets()/reaches_observe change, order doesn't.
  mark_dirty(kDirtyCombApp | kDirtyCombCap);
  touch_net(net_id);
  return idx;
}

void Netlist::mark_clock(int pi_index) {
  EditScope edit(*this);
  clock_pis_.push_back(pi_index);
  // Clock PI nets are excluded from input_nets(); the order ignores clocks.
  mark_dirty(kDirtyCombApp | kDirtyCombCap);
}

bool Netlist::is_clock_net(NetId net_id) const {
  const Net& n = net(net_id);
  if (n.driven_by_pi()) {
    return std::find(clock_pis_.begin(), clock_pis_.end(), n.pi_index) != clock_pis_.end();
  }
  // Clock-tree buffer outputs are clock nets too.
  if (n.driver.valid()) {
    return cell(n.driver.cell).spec->func == CellFunc::kClkBuf;
  }
  return false;
}

void Netlist::replace_spec(CellId cell_id, const CellSpec* new_spec) {
  EditScope edit(*this);
  CellInst& inst = cell(cell_id);
  const CellSpec* old_spec = inst.spec;
  std::vector<NetId> old_conn = inst.conn;

  // Classify the swap as a whole (the internal disconnect/reconnect churn
  // would wrongly look like boundary-FF rewiring): a sequential-to-
  // sequential swap that carries every connection over by pin name (the
  // DFF -> SDFF scan replacement) is invisible to both views — same
  // boundary status, same D/Q/clock nets. Anything else conservatively
  // invalidates everything.
  bool carried_all = true;
  for (std::size_t p = 0; p < old_conn.size(); ++p) {
    if (old_conn[p] != kNoNet && new_spec->find_pin(old_spec->pins[p].name) < 0) {
      carried_all = false;
    }
  }
  const bool view_invariant = carried_all && old_spec->sequential &&
                              new_spec->sequential &&
                              old_spec->func != CellFunc::kTsff &&
                              new_spec->func != CellFunc::kTsff;
  if (!view_invariant) {
    force_dirty(kDirtyAll);
    for (const NetId n : old_conn) {
      if (n != kNoNet) touch_net(n);
    }
  }
  if (old_spec->func == CellFunc::kTsff) --num_tsffs_;
  if (new_spec->func == CellFunc::kTsff) ++num_tsffs_;

  ClassifySuppress suppress(*this);
  // Detach everything, swap the spec, reattach by pin name.
  for (std::size_t p = 0; p < old_conn.size(); ++p) {
    if (old_conn[p] != kNoNet) disconnect(cell_id, static_cast<int>(p));
  }
  inst.spec = new_spec;
  inst.conn.assign(new_spec->pins.size(), kNoNet);
  for (std::size_t p = 0; p < old_conn.size(); ++p) {
    if (old_conn[p] == kNoNet) continue;
    const int np = new_spec->find_pin(old_spec->pins[p].name);
    if (np >= 0) connect(cell_id, np, old_conn[p]);
  }
}

NetId Netlist::insert_cell_in_net(NetId net_id, CellId new_cell, int in_pin,
                                  const std::vector<PinRef>& sink_subset) {
  EditScope edit(*this);
  // Splitting a net moves logic loads onto a fresh net behind a new cell:
  // both views change structurally.
  force_dirty(kDirtyAll);
  touch_net(net_id);
  ClassifySuppress suppress(*this);
  NetId fresh = add_net(net(net_id).name + "_tp" + std::to_string(new_cell));
  touch_net(fresh);
  // Move sinks first (so the new cell's input doesn't get moved).
  std::vector<PinRef> to_move = sink_subset.empty() ? net(net_id).sinks : sink_subset;
  for (const PinRef& ref : to_move) {
    disconnect(ref.cell, ref.pin);
    connect(ref.cell, ref.pin, fresh);
  }
  if (sink_subset.empty()) {
    // Primary outputs move along when splitting the whole net.
    Net& old_net = net(net_id);
    for (int po : old_net.po_sinks) {
      po_nets_[static_cast<std::size_t>(po)] = fresh;
      net(fresh).po_sinks.push_back(po);
    }
    old_net.po_sinks.clear();
  }
  connect(new_cell, in_pin, net_id);
  const int out = cell(new_cell).spec->output_pin;
  assert(out >= 0);
  connect(new_cell, out, fresh);
  return fresh;
}

CellId Netlist::find_cell(std::string_view cell_name) const {
  const auto it = cell_index_.find(std::string(cell_name));
  return it == cell_index_.end() ? kNoCell : it->second;
}

NetId Netlist::find_net(std::string_view net_name) const {
  const auto it = net_index_.find(std::string(net_name));
  return it == net_index_.end() ? kNoNet : it->second;
}

std::vector<CellId> Netlist::flip_flops() const {
  std::vector<CellId> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].spec->sequential) out.push_back(static_cast<CellId>(i));
  }
  return out;
}

std::vector<CellId> Netlist::test_points() const {
  std::vector<CellId> out;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    if (cells_[i].spec->func == CellFunc::kTsff) out.push_back(static_cast<CellId>(i));
  }
  return out;
}

Netlist::Stats Netlist::stats() const {
  Stats s;
  s.cells = cells_.size();
  s.nets = nets_.size();
  s.pis = pi_names_.size();
  s.pos = po_names_.size();
  for (const auto& c : cells_) {
    s.cell_area_um2 += c.spec->area_um2();
    if (c.spec->sequential) {
      ++s.flip_flops;
      if (c.spec->func == CellFunc::kTsff) ++s.test_points;
    } else if (c.spec->func != CellFunc::kFiller) {
      ++s.combinational;
    }
  }
  return s;
}

std::string Netlist::validate() const {
  std::ostringstream err;
  for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
    const CellInst& c = cells_[ci];
    if (c.conn.size() != c.spec->pins.size()) {
      err << "cell " << c.name << ": pin count mismatch";
      return err.str();
    }
    for (std::size_t p = 0; p < c.conn.size(); ++p) {
      const NetId nid = c.conn[p];
      if (nid == kNoNet) continue;
      const Net& n = net(nid);
      const PinRef ref{static_cast<CellId>(ci), static_cast<int>(p)};
      const bool is_out = c.spec->pins[p].dir == PinDir::kOutput;
      if (is_out) {
        if (!(n.driver == ref)) {
          err << "cell " << c.name << " pin " << c.spec->pins[p].name
              << ": net " << n.name << " driver mismatch";
          return err.str();
        }
      } else if (std::find(n.sinks.begin(), n.sinks.end(), ref) == n.sinks.end()) {
        err << "cell " << c.name << " pin " << c.spec->pins[p].name
            << ": missing from sinks of net " << n.name;
        return err.str();
      }
    }
  }
  for (std::size_t ni = 0; ni < nets_.size(); ++ni) {
    const Net& n = nets_[ni];
    if (n.driver.valid() && n.pi_index >= 0) {
      err << "net " << n.name << ": driven by both cell and PI";
      return err.str();
    }
    if (n.driver.valid()) {
      const CellInst& d = cell(n.driver.cell);
      if (d.conn[static_cast<std::size_t>(n.driver.pin)] != static_cast<NetId>(ni)) {
        err << "net " << n.name << ": stale driver reference";
        return err.str();
      }
    }
    for (const PinRef& s : n.sinks) {
      if (cell(s.cell).conn[static_cast<std::size_t>(s.pin)] != static_cast<NetId>(ni)) {
        err << "net " << n.name << ": stale sink reference";
        return err.str();
      }
    }
  }
  return {};
}

}  // namespace tpi
