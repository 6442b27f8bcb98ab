#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "deploy/backend.h"
#include "deploy/plan.h"
#include "obs/trace.h"

namespace cq::obs {

/// One op of a profile report, in plan order.
struct OpProfileRow {
  int op = 0;
  std::string kind;      ///< deploy::op_kind_name
  std::string label;     ///< originating layer name ("-" for glue ops)
  std::string dispatch;  ///< backend implementation that ran it
  std::uint64_t calls = 0;
  std::uint64_t samples = 0;  ///< sum of batch sizes across calls
  double total_ms = 0.0;
  double mean_us = 0.0;       ///< per call
  std::uint64_t bytes = 0;    ///< arena bytes touched across all calls
  std::uint64_t macs = 0;     ///< multiply-accumulates per sample (deploy::op_macs)
  double share = 0.0;         ///< total_ms / report total

  /// Multiply-accumulate throughput over the recorded calls, in
  /// GMAC/s (macs * samples / time); 0 for ops without MACs.
  double gmacs() const;
};

/// Aggregated row (per op kind, or per originating layer label).
struct ProfileAggregate {
  std::string key;
  std::uint64_t calls = 0;
  double total_ms = 0.0;
  std::uint64_t bytes = 0;
  double share = 0.0;
};

/// Snapshot of everything a PlanProfiler accumulated.
struct ProfileReport {
  std::vector<OpProfileRow> ops;        ///< plan order
  std::vector<ProfileAggregate> by_kind;   ///< first-seen order
  std::vector<ProfileAggregate> by_layer;  ///< plan order, labelled ops only
  double total_ms = 0.0;

  /// Machine-readable form for bench/CI artifacts:
  /// {"total_ms": .., "ops": [..], "by_kind": [..], "by_layer": [..]}.
  std::string to_json() const;
};

/// Per-op plan profiler: the TraceSink serve::EngineSession drives
/// when profiling is opted in. Recording is lock-free — one cache-line
/// padded cell of relaxed atomics per plan op — so any number of
/// interpreter contexts profile concurrently without serializing the
/// engine; report() folds the cells into per-op rows plus per-kind and
/// per-layer aggregates.
///
/// The profiler binds the plan (and optionally the prepared backend,
/// for the dispatch column) at construction; both must outlive it.
class PlanProfiler : public TraceSink {
 public:
  explicit PlanProfiler(const deploy::ExecutionPlan& plan,
                        const deploy::Backend* backend = nullptr);

  void on_op(const OpEvent& event) override;

  ProfileReport report() const;
  void reset();

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> samples{0};
    std::atomic<std::uint64_t> ns{0};
  };

  const deploy::ExecutionPlan& plan_;
  std::vector<Cell> cells_;              ///< one per plan op
  std::vector<std::string> dispatch_;    ///< backend impl per op
  std::vector<std::uint64_t> op_bytes_;  ///< arena bytes per sample per op
  std::vector<std::uint64_t> op_macs_;   ///< MACs per sample per op
};

}  // namespace cq::obs
