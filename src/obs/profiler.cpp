#include "obs/profiler.h"

#include <cstdio>
#include <map>
#include <sstream>

#include "util/logging.h"

namespace cq::obs {

namespace {

std::string format_ms(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", ms);
  return buf;
}

void append_aggregate(std::ostringstream& os, const std::vector<ProfileAggregate>& rows) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ProfileAggregate& a = rows[i];
    os << (i == 0 ? "" : ", ") << "{\"key\": \"" << a.key << "\", \"calls\": " << a.calls
       << ", \"total_ms\": " << format_ms(a.total_ms) << ", \"bytes\": " << a.bytes
       << ", \"share\": " << format_ms(a.share) << "}";
  }
}

/// Folds rows into aggregates keyed by `key`, preserving first-seen
/// order so conv stacks read top-to-bottom like the plan listing.
template <typename Key>
std::vector<ProfileAggregate> aggregate(const std::vector<OpProfileRow>& rows,
                                        double total_ms, Key key) {
  std::vector<ProfileAggregate> out;
  std::map<std::string, std::size_t> index;
  for (const OpProfileRow& row : rows) {
    const std::string k = key(row);
    if (k.empty()) continue;
    auto [it, inserted] = index.emplace(k, out.size());
    if (inserted) {
      out.push_back({});
      out.back().key = k;
    }
    ProfileAggregate& a = out[it->second];
    a.calls += row.calls;
    a.total_ms += row.total_ms;
    a.bytes += row.bytes;
  }
  for (ProfileAggregate& a : out) {
    a.share = total_ms > 0.0 ? a.total_ms / total_ms : 0.0;
  }
  return out;
}

}  // namespace

double OpProfileRow::gmacs() const {
  if (total_ms <= 0.0) return 0.0;
  return static_cast<double>(macs) * static_cast<double>(samples) / (total_ms * 1e6);
}

PlanProfiler::PlanProfiler(const deploy::ExecutionPlan& plan,
                           const deploy::Backend* backend)
    : plan_(plan), cells_(plan.ops().size()) {
  dispatch_.reserve(plan.ops().size());
  op_bytes_.reserve(plan.ops().size());
  op_macs_.reserve(plan.ops().size());
  for (const deploy::PlanOp& op : plan.ops()) {
    dispatch_.emplace_back(backend != nullptr ? backend->dispatch(op) : "-");
    op_bytes_.push_back(deploy::op_arena_bytes(op, plan));
    op_macs_.push_back(deploy::op_macs(op));
  }
}

void PlanProfiler::on_op(const OpEvent& event) {
  if (event.op < 0 || static_cast<std::size_t>(event.op) >= cells_.size()) return;
  Cell& cell = cells_[static_cast<std::size_t>(event.op)];
  cell.calls.fetch_add(1, std::memory_order_relaxed);
  cell.samples.fetch_add(static_cast<std::uint64_t>(event.batch),
                         std::memory_order_relaxed);
  cell.ns.fetch_add(static_cast<std::uint64_t>(event.ns), std::memory_order_relaxed);
}

ProfileReport PlanProfiler::report() const {
  ProfileReport report;
  report.ops.reserve(cells_.size());
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const deploy::PlanOp& op = plan_.ops()[i];
    OpProfileRow row;
    row.op = static_cast<int>(i);
    row.kind = deploy::op_kind_name(op.kind);
    row.label = op.label.empty() ? "-" : op.label;
    row.dispatch = dispatch_[i];
    row.calls = cells_[i].calls.load(std::memory_order_relaxed);
    row.samples = cells_[i].samples.load(std::memory_order_relaxed);
    const auto ns = cells_[i].ns.load(std::memory_order_relaxed);
    row.total_ms = static_cast<double>(ns) / 1e6;
    row.mean_us =
        row.calls == 0 ? 0.0 : static_cast<double>(ns) / 1e3 / static_cast<double>(row.calls);
    row.bytes = op_bytes_[i] * row.samples;
    row.macs = op_macs_[i];
    report.total_ms += row.total_ms;
    report.ops.push_back(std::move(row));
  }
  for (OpProfileRow& row : report.ops) {
    row.share = report.total_ms > 0.0 ? row.total_ms / report.total_ms : 0.0;
  }
  report.by_kind =
      aggregate(report.ops, report.total_ms, [](const OpProfileRow& r) { return r.kind; });
  report.by_layer = aggregate(report.ops, report.total_ms, [](const OpProfileRow& r) {
    return r.label == "-" ? std::string() : r.label;
  });
  util::log_debug() << "obs: profile report over " << report.ops.size() << " ops, "
                    << report.total_ms << " ms attributed";
  return report;
}

void PlanProfiler::reset() {
  for (Cell& cell : cells_) {
    cell.calls.store(0, std::memory_order_relaxed);
    cell.samples.store(0, std::memory_order_relaxed);
    cell.ns.store(0, std::memory_order_relaxed);
  }
}

std::string ProfileReport::to_json() const {
  std::ostringstream os;
  os << "{\"total_ms\": " << format_ms(total_ms) << ", \"ops\": [";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const OpProfileRow& r = ops[i];
    os << (i == 0 ? "" : ", ") << "{\"op\": " << r.op << ", \"kind\": \"" << r.kind
       << "\", \"label\": \"" << r.label << "\", \"dispatch\": \"" << r.dispatch
       << "\", \"calls\": " << r.calls << ", \"samples\": " << r.samples
       << ", \"total_ms\": " << format_ms(r.total_ms)
       << ", \"mean_us\": " << format_ms(r.mean_us) << ", \"bytes\": " << r.bytes
       << ", \"macs\": " << r.macs << ", \"gmacs\": " << format_ms(r.gmacs())
       << ", \"share\": " << format_ms(r.share) << "}";
  }
  os << "], \"by_kind\": [";
  append_aggregate(os, by_kind);
  os << "], \"by_layer\": [";
  append_aggregate(os, by_layer);
  os << "]}";
  return os.str();
}

}  // namespace cq::obs
