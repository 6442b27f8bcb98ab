#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "deploy/plan.h"

namespace cq::deploy {

/// Structured pass log: what one pass did to the plan. `changes` counts
/// the pass's own unit of work (fusions, deleted round-trips, dropped
/// slots); ops/arena record the plan totals around the pass so effects
/// are visible without diffing listings.
struct PassResult {
  std::string name;
  std::size_t ops_before = 0;
  std::size_t ops_after = 0;
  std::size_t arena_before = 0;  ///< floats per sample
  std::size_t arena_after = 0;   ///< floats per sample
  std::size_t changes = 0;
};

struct OptimizeReport {
  std::vector<PassResult> passes;

  /// Total ops removed across all passes (before - after of the ends).
  std::size_t ops_removed() const;
  /// One "name: ops A -> B, arena X -> Y floats/sample, N changes"
  /// line per pass, for logs and listings.
  std::string summary() const;
};

/// The pass pipeline over a compiled plan: fuse-epilogue, then
/// propagate-codes. Every pass mutates through PlanRewriter, runs to a
/// fixpoint, and leaves the plan verify_plan-clean — optimize_plan
/// re-verifies after each pass and throws ArtifactError naming the
/// offending pass on any finding, so a broken rewrite can never reach
/// a backend. All passes are bit-exact: an optimized plan produces
/// byte-identical inference results.
OptimizeReport optimize_plan(ExecutionPlan& plan);

// Individual passes, exposed for targeted tests. Each returns its
// `changes` count and (when it changed anything) finishes with the
// compact + re-plan step, so a single pass also leaves a clean plan.

/// Folds BatchNorm / residual Add / Relu ops into the epilogue fields
/// of the producing IntConv/IntLinear/FloatConv/FloatLinear when the
/// producer's output has no other consumer. The fused op sinks to the
/// folded op's position (so a live residual operand crossing the fused
/// region keeps its value); epilogues apply the standalone ops'
/// expressions in program order, so fusion is byte-exact.
std::size_t pass_fuse_epilogue(ExecutionPlan& plan);

/// Quantized-domain propagation. First deletes EncodeAct ops whose
/// entire consumer closure (through the code-transparent MaxPool /
/// Flatten) re-encodes on the identical grid — encode(quantize(x)) ==
/// encode(x), so the round-trip is redundant. Then, where a compute
/// op's closure feeds only integer ops on one common grid, records
/// ep_encode on the producer (emit grid codes as floats) and in_codes
/// on the consumers (cast instead of re-encode), deleting the
/// decode -> EncodeAct round-trip. Mixed grids, float consumers,
/// AvgPool, or residual (in1) uses block propagation — the plan falls
/// back to the explicit EncodeAct.
std::size_t pass_propagate_codes(ExecutionPlan& plan);

/// Drops slots no op references anymore, renumbers the survivors, and
/// re-runs the shared lifetime first-fit allocator (deploy/arena.h) so
/// the arena fits the rewritten program. Every mutating pass ends with
/// this, so it is not a pipeline stage of its own (a compiled plan has
/// no unreferenced slots). Returns the number of dropped slots.
std::size_t pass_replan_arena(ExecutionPlan& plan);

}  // namespace cq::deploy
