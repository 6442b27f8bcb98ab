// Tests for the deploy::optimize_plan pass pipeline: op-count budgets,
// pass-log structure, byte-equivalence of optimized vs. as-compiled
// plans across the zoo x batch x threads x backends, and the edge
// cases the passes must decline (int->float boundaries, inexact grid
// composition, single-layer plans).

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "deploy/backend.h"
#include "deploy/passes/passes.h"
#include "deploy/plan.h"
#include "deploy/verify.h"
#include "nn/models/mlp.h"
#include "serve/engine_session.h"
#include "serve_fixtures.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace cq::deploy {
namespace {

struct ZooEntry {
  std::string name;
  QuantizedArtifact artifact;
  tensor::Shape sample;
};

std::vector<ZooEntry> zoo() {
  std::vector<ZooEntry> entries;
  entries.push_back({"vgg", serve::tiny_vgg_artifact(), {3, 8, 8}});
  entries.push_back({"mlp", serve::tiny_mlp_artifact(), {12}});
  entries.push_back({"resnet", serve::tiny_resnet_artifact(), {3, 8, 8}});
  return entries;
}

testing::AssertionResult verifies_clean(const ExecutionPlan& plan) {
  const VerifyReport report = verify_plan(plan);
  if (report.clean()) return testing::AssertionSuccess();
  return testing::AssertionFailure() << format_diagnostics(report);
}

// ISSUE acceptance: the pipeline deletes >= 25% of ResNet20's ops
// (every BN, most Relus, and the inter-layer encode round-trips fold
// away). The tiny fixture has the same op mix as the default size.
TEST(PlanOptimize, ResNetOpReductionMeetsBudget) {
  ExecutionPlan plan = compile_plan(serve::tiny_resnet_artifact());
  const std::size_t before = plan.ops().size();
  const OptimizeReport report = optimize_plan(plan);
  const std::size_t after = plan.ops().size();
  EXPECT_EQ(report.ops_removed(), before - after);
  EXPECT_LE(after * 4, before * 3) << "expected >= 25% op deletion, got " << before
                                   << " -> " << after;
  EXPECT_TRUE(verifies_clean(plan));
}

// The pass log is structured: one entry per enabled pass, in pipeline
// order, with before/after totals that chain, and a summary() that
// round-trips every pass name and its unit-of-work count.
TEST(PlanOptimize, PassLogStructureAndSummaryRoundTrip) {
  for (const ZooEntry& entry : zoo()) {
    ExecutionPlan plan = compile_plan(entry.artifact);
    const std::size_t compiled_ops = plan.ops().size();
    const OptimizeReport report = optimize_plan(plan);
    ASSERT_EQ(report.passes.size(), 2u) << entry.name;
    EXPECT_EQ(report.passes[0].name, "fuse-epilogue");
    EXPECT_EQ(report.passes[1].name, "propagate-codes");
    EXPECT_EQ(report.passes.front().ops_before, compiled_ops) << entry.name;
    EXPECT_EQ(report.passes.back().ops_after, plan.ops().size()) << entry.name;
    for (std::size_t i = 1; i < report.passes.size(); ++i) {
      EXPECT_EQ(report.passes[i].ops_before, report.passes[i - 1].ops_after)
          << entry.name << " pass " << i;
    }
    const std::string summary = report.summary();
    for (const PassResult& pass : report.passes) {
      EXPECT_NE(summary.find(pass.name), std::string::npos) << summary;
      EXPECT_NE(summary.find(std::to_string(pass.changes) + " changes"),
                std::string::npos)
          << summary;
    }
    EXPECT_TRUE(verifies_clean(plan)) << entry.name;
  }
}

// The exactness contract end-to-end: an optimized session is
// byte-identical to the as-compiled session on every zoo model, at
// several batch sizes and intra-op thread counts, on both backends.
TEST(PlanOptimize, ByteIdenticalAcrossZooBatchThreadsBackends) {
  for (const ZooEntry& entry : zoo()) {
    for (const BackendKind kind : all_backend_kinds()) {
      for (const int threads : {1, 2, 8}) {
        std::unique_ptr<util::ThreadPool> pool;
        if (threads > 1) pool = std::make_unique<util::ThreadPool>(threads - 1);
        const util::ExecContext exec{pool.get(), threads};
        serve::EngineSession o0(compile_plan(entry.artifact), 1, exec, make_backend(kind));
        serve::EngineSession o1(entry.artifact, 1, exec, make_backend(kind));
        for (const int batch : {1, 3, 8}) {
          const tensor::Tensor input = serve::random_batch(entry.sample, batch, 29);
          const tensor::Tensor ref = o0.run(input);
          const tensor::Tensor opt = o1.run(input);
          ASSERT_EQ(ref.numel(), opt.numel());
          EXPECT_EQ(std::memcmp(ref.data(), opt.data(), ref.numel() * sizeof(float)),
                    0)
              << entry.name << " backend=" << backend_kind_name(kind)
              << " threads=" << threads << " batch=" << batch;
        }
      }
    }
  }
}

// A residual Add whose shortcut operand crosses the fused region must
// still fuse: ResNet's block pattern produces compute ops carrying
// ep_add with a live in1 slot.
TEST(PlanOptimize, ResidualAddCrossesFusedRegion) {
  ExecutionPlan plan = compile_plan(serve::tiny_resnet_artifact());
  optimize_plan(plan);
  bool fused_residual = false;
  for (const PlanOp& op : plan.ops()) {
    if (op.ep_add) {
      EXPECT_TRUE(is_compute_op(op.kind));
      EXPECT_GE(op.in1, 0);
      fused_residual = true;
    }
  }
  EXPECT_TRUE(fused_residual) << "no residual Add was fused on ResNet";
  EXPECT_EQ(std::count_if(plan.ops().begin(), plan.ops().end(),
                          [](const PlanOp& op) { return op.kind == OpKind::Add; }),
            0)
      << "standalone residual Adds survived fusion";
}

// Codes never propagate across the int->float boundary: in_codes may
// only appear on integer ops, and the float head keeps consuming plain
// activations (VggSmall/Mlp end in FloatLinear heads).
TEST(PlanOptimize, NoCodePropagationIntoFloatOps) {
  for (const ZooEntry& entry : zoo()) {
    ExecutionPlan plan = compile_plan(entry.artifact);
    optimize_plan(plan);
    for (std::size_t i = 0; i < plan.ops().size(); ++i) {
      const PlanOp& op = plan.ops()[i];
      if (op.in_codes) {
        EXPECT_TRUE(op.kind == OpKind::IntConv || op.kind == OpKind::IntLinear)
            << entry.name << " op " << i << " (" << op_kind_name(op.kind)
            << ") adopted codes";
      }
      // Float ops may *produce* codes for an integer consumer
      // (ep_encode on the stem), but never consume them: a float
      // kernel reading raw code values would be arithmetic nonsense.
      if (op.kind == OpKind::FloatConv || op.kind == OpKind::FloatLinear) {
        EXPECT_FALSE(op.in_codes) << entry.name << " op " << i;
      }
    }
    // The int->float boundary specifically: the FloatLinear head still
    // consumes plain activations, so the decode stays explicit there.
    const PlanOp& head = plan.ops().back();
    EXPECT_EQ(head.kind, OpKind::FloatLinear) << entry.name;
    EXPECT_FALSE(head.in_codes) << entry.name;
    for (const PlanOp& op : plan.ops()) {
      if (op.out == head.in0 && is_compute_op(op.kind)) {
        EXPECT_FALSE(op.ep_encode)
            << entry.name << ": producer feeding the float head emits codes";
      }
    }
  }
}

// Inexact grid composition falls back to the explicit EncodeAct: when
// an encoder's grid no longer matches its consumer's, the round-trip
// is NOT redundant, so the pass must keep the op (and must not mark
// the upstream producer ep_encode). The mutated plan still optimizes
// to a byte-identical program.
TEST(PlanOptimize, InexactCompositionKeepsEncodeAct) {
  ExecutionPlan plan = compile_plan(serve::tiny_mlp_artifact());
  int encode = -1;
  for (std::size_t i = 0; i < plan.ops().size(); ++i) {
    if (plan.ops()[i].kind == OpKind::EncodeAct) encode = static_cast<int>(i);
  }
  ASSERT_GE(encode, 0);
  const float sentinel_hi = plan.ops()[static_cast<std::size_t>(encode)].act_hi * 1.5f;
  {
    PlanRewriter rw(plan);
    rw.ops()[static_cast<std::size_t>(encode)].act_hi = sentinel_hi;
  }
  ASSERT_TRUE(verifies_clean(plan));

  ExecutionPlan optimized = plan;
  const OptimizeReport report = optimize_plan(optimized);
  (void)report;
  EXPECT_TRUE(verifies_clean(optimized));

  // The mismatched encoder survives, and nothing upstream claims to
  // emit codes on its behalf.
  bool kept = false;
  for (const PlanOp& op : optimized.ops()) {
    if (op.kind == OpKind::EncodeAct && op.act_hi == sentinel_hi) kept = true;
  }
  EXPECT_TRUE(kept) << "grid-mismatched EncodeAct was deleted";

  // Byte-equivalence holds on the mutated semantics too.
  serve::EngineSession o0(plan);
  serve::EngineSession o1(std::move(optimized));
  const tensor::Tensor input = serve::random_batch({12}, 5, 31);
  const tensor::Tensor ref = o0.run(input);
  const tensor::Tensor opt = o1.run(input);
  ASSERT_EQ(ref.numel(), opt.numel());
  EXPECT_EQ(std::memcmp(ref.data(), opt.data(), ref.numel() * sizeof(float)), 0);
}

// Degenerate single-layer plan (head-only MLP): nothing to fuse or
// propagate, and the pipeline must hand the plan back unchanged and
// clean instead of tripping on empty producer/consumer sets.
TEST(PlanOptimize, SingleLayerPlanPassesThrough) {
  nn::MlpConfig cfg;
  cfg.in_features = 6;
  cfg.hidden = {};
  cfg.num_classes = 3;
  nn::Mlp model(cfg);
  ExecutionPlan plan =
      compile_plan(serve::fabricate_artifact(model, {cfg.in_features}, 3, 19));
  const std::size_t before = plan.ops().size();
  const OptimizeReport report = optimize_plan(plan);
  EXPECT_EQ(plan.ops().size(), before);
  EXPECT_EQ(report.ops_removed(), 0u);
  EXPECT_TRUE(verifies_clean(plan));

  serve::EngineSession session(plan);
  const tensor::Tensor out = session.run(serve::random_batch({6}, 2, 37));
  EXPECT_EQ(out.shape(), (tensor::Shape{2, 3}));
}

// The pipeline is idempotent: a second run finds nothing left to do.
TEST(PlanOptimize, SecondRunIsNoOp) {
  ExecutionPlan plan = compile_plan(serve::tiny_resnet_artifact());
  optimize_plan(plan);
  const std::size_t ops = plan.ops().size();
  const std::size_t arena = plan.arena_floats();
  const OptimizeReport again = optimize_plan(plan);
  EXPECT_EQ(again.ops_removed(), 0u);
  for (const PassResult& pass : again.passes) {
    EXPECT_EQ(pass.changes, 0u) << pass.name;
  }
  EXPECT_EQ(plan.ops().size(), ops);
  EXPECT_EQ(plan.arena_floats(), arena);
  EXPECT_TRUE(verifies_clean(plan));
}

}  // namespace
}  // namespace cq::deploy
