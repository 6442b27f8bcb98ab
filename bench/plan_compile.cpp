// plan_compile — measures deploy::compile_plan cost, deploy::verify_plan
// cost, deploy::optimize_plan cost, and the plan footprint at both opt
// settings (as compiled and after the optimizer pass pipeline) for the
// three zoo models, so plan-compile regressions (time, arena bytes or
// the weight bytes a plan keeps resident), verifier slowdowns, and
// optimizer coverage losses (op-count deltas) are visible in the perf-smoke CI lane's JSON artifact alongside
// kernel_scaling. Any verifier finding on a zoo plan — at either opt
// setting — fails the bench.
//
// Usage: plan_compile [--repeat=N] [--json=path]
//   --repeat   timed compiles/verifies/optimizes per model, best-of
//              reported (default 5)
//   --json     machine-readable output for the CI artifact

#include <climits>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/passes/passes.h"
#include "deploy/plan.h"
#include "deploy/verify.h"
#include "serve/model_registry.h"
#include "serve/zoo.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace cq;

struct Result {
  std::string name;
  double best_ms = 0.0;
  double verify_ms = 0.0;  ///< best-of verify_plan over the compiled plan
  bool verify_clean = false;
  std::size_t ops = 0;
  int slots = 0;
  std::size_t arena_bytes = 0;
  std::size_t no_reuse_bytes = 0;  ///< one fresh buffer per op output
  std::size_t integer_layers = 0;
  std::size_t plan_bytes = 0;  ///< serve::plan_resident_bytes
  /// Optimizer pass pipeline: best-of optimize_plan cost over a fresh
  /// compile each iteration, and the optimized plan's footprint.
  double optimize_ms = 0.0;
  bool opt_verify_clean = false;
  std::size_t opt_ops = 0;
  int opt_slots = 0;
  std::size_t opt_arena_bytes = 0;
  std::size_t opt_plan_bytes = 0;
};

Result measure(const std::string& name, const deploy::QuantizedArtifact& artifact,
               int repeat) {
  Result r;
  r.name = name;
  const deploy::ExecutionPlan plan = deploy::compile_plan(artifact);  // warm
  for (int i = 0; i < repeat; ++i) {
    util::Timer timer;
    const deploy::ExecutionPlan timed = deploy::compile_plan(artifact);
    const double ms = timer.millis();
    (void)timed;
    if (i == 0 || ms < r.best_ms) r.best_ms = ms;
  }
  for (int i = 0; i < repeat; ++i) {
    util::Timer timer;
    const deploy::VerifyReport report = deploy::verify_plan(plan);
    const double ms = timer.millis();
    if (i == 0 || ms < r.verify_ms) r.verify_ms = ms;
    r.verify_clean = report.clean();
  }
  r.ops = plan.ops().size();
  r.slots = plan.slot_count();
  r.arena_bytes = plan.arena_bytes();
  r.integer_layers = plan.integer_layers().size();
  r.plan_bytes = serve::plan_resident_bytes(plan);
  for (const deploy::PlanOp& op : plan.ops()) {
    r.no_reuse_bytes +=
        plan.slots()[static_cast<std::size_t>(op.out)].numel * sizeof(float);
  }
  // optimize_plan mutates its input, so every timed iteration starts
  // from a fresh compile (done outside the timer).
  for (int i = 0; i < repeat; ++i) {
    deploy::ExecutionPlan fresh = deploy::compile_plan(artifact);
    util::Timer timer;
    deploy::optimize_plan(fresh);
    const double ms = timer.millis();
    if (i == 0 || ms < r.optimize_ms) r.optimize_ms = ms;
    if (i == 0) {
      r.opt_verify_clean = deploy::verify_plan(fresh).clean();
      r.opt_ops = fresh.ops().size();
      r.opt_slots = fresh.slot_count();
      r.opt_arena_bytes = fresh.arena_bytes();
      r.opt_plan_bytes = serve::plan_resident_bytes(fresh);
    }
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  int repeat = 0;
  try {
    repeat = static_cast<int>(cli.get_int("repeat", 5, 1, INT_MAX));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "plan_compile: %s\n", e.what());
    return 2;
  }
  const std::string json_path = cli.get("json", "");

  // Default-size zoo models (larger than the tiny test fixtures, so
  // the compile cost is representative).
  std::vector<Result> results;
  for (const serve::ZooModel& model : serve::default_zoo()) {
    results.push_back(measure(model.name, model.artifact, repeat));
  }

  util::Table table({"model", "compile ms", "verify ms", "verify", "ops", "slots",
                     "arena B/sample", "no-reuse B", "int layers", "weight B"});
  bool all_clean = true;
  for (const Result& r : results) {
    table.add_row({r.name, util::Table::num(r.best_ms, 3),
                   util::Table::num(r.verify_ms, 3), r.verify_clean ? "clean" : "FAIL",
                   std::to_string(r.ops), std::to_string(r.slots),
                   std::to_string(r.arena_bytes), std::to_string(r.no_reuse_bytes),
                   std::to_string(r.integer_layers), std::to_string(r.plan_bytes)});
    all_clean = all_clean && r.verify_clean;
  }
  std::printf("compile_plan/verify_plan cost and plan footprint (best of %d)\n%s\n",
              repeat, table.render().c_str());

  util::Table opt({"model", "optimize ms", "ops", "ops removed", "arena B/sample",
                   "weight B", "verify"});
  for (const Result& r : results) {
    const double removed_pct =
        r.ops > 0 ? 100.0 * static_cast<double>(r.ops - r.opt_ops) /
                        static_cast<double>(r.ops)
                  : 0.0;
    opt.add_row({r.name, util::Table::num(r.optimize_ms, 3),
                 std::to_string(r.ops) + " -> " + std::to_string(r.opt_ops),
                 std::to_string(r.ops - r.opt_ops) + " (" +
                     util::Table::num(removed_pct, 1) + "%)",
                 std::to_string(r.arena_bytes) + " -> " +
                     std::to_string(r.opt_arena_bytes),
                 std::to_string(r.plan_bytes) + " -> " + std::to_string(r.opt_plan_bytes),
                 r.opt_verify_clean ? "clean" : "FAIL"});
    all_clean = all_clean && r.opt_verify_clean;
  }
  std::printf("optimize_plan cost and op-count/arena deltas (best of %d)\n%s\n",
              repeat, opt.render().c_str());
  if (!all_clean) {
    std::fprintf(stderr, "plan_compile: a zoo plan failed static verification\n");
    return 1;
  }

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "plan_compile: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"repeat\": %d,\n  \"models\": [\n", repeat);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"compile_ms\": %.4f, "
                   "\"verify_ms\": %.4f, \"ops\": %zu, "
                   "\"slots\": %d, \"arena_bytes\": %zu, "
                   "\"no_reuse_bytes\": %zu, \"integer_layers\": %zu, "
                   "\"plan_bytes\": %zu, "
                   "\"optimize_ms\": %.4f, \"opt_ops\": %zu, "
                   "\"opt_slots\": %d, \"opt_arena_bytes\": %zu, "
                   "\"opt_plan_bytes\": %zu}%s\n",
                   r.name.c_str(), r.best_ms, r.verify_ms, r.ops, r.slots,
                   r.arena_bytes, r.no_reuse_bytes, r.integer_layers, r.plan_bytes,
                   r.optimize_ms, r.opt_ops, r.opt_slots, r.opt_arena_bytes,
                   r.opt_plan_bytes,
                   i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
