#include <cstddef>
#include <string>
#include <utility>

#include "deploy/passes/passes.h"
#include "deploy/verify.h"

namespace cq::deploy {

std::size_t OptimizeReport::ops_removed() const {
  if (passes.empty()) return 0;
  return passes.front().ops_before - passes.back().ops_after;
}

std::string OptimizeReport::summary() const {
  std::string out;
  for (const PassResult& pass : passes) {
    out += pass.name + ": ops " + std::to_string(pass.ops_before) + " -> " +
           std::to_string(pass.ops_after) + ", arena " +
           std::to_string(pass.arena_before) + " -> " +
           std::to_string(pass.arena_after) + " floats/sample, " +
           std::to_string(pass.changes) + " changes\n";
  }
  return out;
}

namespace {

/// Runs one pass, records its log entry, and proves the rewritten plan
/// against the full invariant catalog. A pass that breaks an invariant
/// is a bug in the pass — surface it at the IR boundary, naming the
/// pass, instead of letting a backend execute the broken program.
void run_pass(ExecutionPlan& plan, OptimizeReport& report, const char* name,
              std::size_t (*pass)(ExecutionPlan&)) {
  PassResult result;
  result.name = name;
  result.ops_before = plan.ops().size();
  result.arena_before = plan.arena_floats();
  result.changes = pass(plan);
  result.ops_after = plan.ops().size();
  result.arena_after = plan.arena_floats();
  const VerifyReport verify = verify_plan(plan);
  if (!verify.clean()) {
    throw ArtifactError(std::string("optimize_plan: pass '") + name +
                        "' left the plan failing verification:\n" +
                        format_diagnostics(verify));
  }
  report.passes.push_back(std::move(result));
}

}  // namespace

OptimizeReport optimize_plan(ExecutionPlan& plan) {
  OptimizeReport report;
  run_pass(plan, report, "fuse-epilogue", pass_fuse_epilogue);
  run_pass(plan, report, "propagate-codes", pass_propagate_codes);
  return report;
}

}  // namespace cq::deploy
