// Tests for the deploy::optimize_plan pass pipeline: op-count budgets,
// pass-log structure, byte-equivalence of optimized vs. as-compiled
// plans across the zoo x batch x threads x backends, and the edge
// cases the passes must decline (int->float boundaries, inexact grid
// composition, single-layer plans).

#include <algorithm>
#include <cstdint>
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

// Two NaNs of different payloads meeting at a residual Add: the
// as-compiled plan runs the standalone Add, the optimized one the conv's
// fused ep_add, and on both backends each keeps the main path's (in0's)
// payload, add_keeping_nan's rule, so the two plans stay byte-identical.
// The 1x1 conv's filter f copies channel (f + 1) % 3, so output channel
// 0 carries one payload into the Add and the residual (the plan input)
// brings the other; 5 x 6 positions leave a partial 8-lane store.
TEST(PlanOptimize, FusedResidualAddKeepsTheMainPathsNanPayload) {
  constexpr int kC = 3, kH = 5, kW = 6, kNumel = kC * kH * kW, kSpatial = kH * kW;
  const tensor::Shape chw{kC, kH, kW};
  ExecutionPlan compiled;
  {
    PlanRewriter rw(compiled);
    const auto numel = static_cast<std::size_t>(kNumel);
    rw.slots() = {{0, numel, chw}, {0, numel, chw}, {0, numel, chw}, {0, numel, {kNumel}}};
    rw.input_slot() = 0;
    rw.output_slot() = 3;
    rw.sample_shape() = chw;
    rw.num_classes() = kNumel;
    PlanOp conv;
    conv.kind = OpKind::FloatConv;
    conv.label = "conv";
    conv.in_c = conv.out_c = kC;
    conv.in_h = conv.out_h = kH;
    conv.in_w = conv.out_w = kW;
    conv.kernel = conv.stride = 1;
    conv.weight = tensor::Tensor({kC, kC});
    for (int f = 0; f < kC; ++f) conv.weight.data()[f * kC + (f + 1) % kC] = 1.0f;
    conv.bias.assign(kC, 0.0f);
    conv.in0 = 0;
    conv.out = 1;
    PlanOp add;
    add.kind = OpKind::Add;
    add.label = "add";
    add.in0 = 1;
    add.in1 = 0;
    add.out = 2;
    PlanOp flatten;
    flatten.kind = OpKind::Flatten;
    flatten.label = "flatten";
    flatten.in0 = 2;
    flatten.out = 3;
    rw.ops() = {conv, add, flatten};
  }
  pass_replan_arena(compiled);
  ASSERT_TRUE(verifies_clean(compiled));
  ExecutionPlan fused = compiled;
  ASSERT_EQ(pass_fuse_epilogue(fused), 1u);
  ASSERT_TRUE(verifies_clean(fused));
  ASSERT_TRUE(fused.ops().front().ep_add);

  const auto nan = [](std::uint32_t bits) {
    float f = 0.0f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
  };
  constexpr std::uint32_t kMain = 0x7fc0beefu, kResidual = 0x7fc0cafeu;
  tensor::Tensor input = serve::random_batch(chw, 2, 41);
  for (int n = 0; n < 2; ++n) {
    for (int s = n; s < kSpatial; s += 2) {
      input.data()[n * kNumel + s] = nan(kResidual);            // channel 0: residual
      input.data()[n * kNumel + kSpatial + s] = nan(kMain);     // channel 1: conv's channel 0
    }
  }
  for (const BackendKind kind : all_backend_kinds()) {
    serve::EngineSession o0(compiled, 1, {}, make_backend(kind));
    serve::EngineSession o1(fused, 1, {}, make_backend(kind));
    const tensor::Tensor ref = o0.run(input);
    const tensor::Tensor opt = o1.run(input);
    ASSERT_EQ(ref.numel(), opt.numel());
    EXPECT_EQ(std::memcmp(ref.data(), opt.data(), ref.numel() * sizeof(float)), 0)
        << backend_kind_name(kind);
    for (int n = 0; n < 2; ++n) {
      for (int s = n; s < kSpatial; s += 2) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, ref.data() + n * kNumel + s, sizeof(bits));
        EXPECT_EQ(bits, kMain) << backend_kind_name(kind) << " sample " << n << " position " << s;
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
