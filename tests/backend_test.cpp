// The backend seam's contract tests.
//
// BackendIdentity pins the load-bearing invariant of deploy::Backend:
// every backend produces byte-identical outputs to the scalar
// reference — at the kernel level over randomized shapes (pruned
// 0-bit filter rows, filter counts off the panel-tile boundary, batch
// and thread sweeps, every reachable SIMD tier and kernel) and at the
// plan level over the model zoo through serve::EngineSession. Runs in
// the TSan and ASan/UBSan CI lanes.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "deploy/backend.h"
#include "deploy/cpu_features.h"
#include "deploy/int_engine.h"
#include "deploy/plan.h"
#include "deploy/verify.h"
#include "serve/engine_session.h"
#include "serve_fixtures.h"
#include "tensor/tensor.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cq::deploy {
namespace {

using tensor::Tensor;

/// Random IntegerLayer with a mixed bit pattern including pruned
/// (0-bit) rows — the filter arrangement real CQ artifacts have.
IntegerLayer random_integer_layer(int num_filters, std::int64_t per_filter,
                                  util::Rng& rng) {
  IntegerLayer layer;
  layer.num_filters = num_filters;
  layer.weights_per_filter = per_filter;
  layer.range_hi = 0.8f;
  const int pattern[7] = {2, 3, 0, 1, 4, 2, 0};
  layer.filter_bits.resize(static_cast<std::size_t>(num_filters));
  layer.codes.assign(static_cast<std::size_t>(num_filters) * per_filter, 0);
  layer.bias.resize(static_cast<std::size_t>(num_filters));
  for (int k = 0; k < num_filters; ++k) {
    const int b = pattern[k % 7];
    layer.filter_bits[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(b);
    layer.bias[static_cast<std::size_t>(k)] =
        static_cast<float>(rng.uniform(-0.5, 0.5));
    if (b == 0) continue;
    const int levels = 1 << b;
    std::int32_t* row = layer.codes.data() + static_cast<std::size_t>(k) * per_filter;
    for (std::int64_t j = 0; j < per_filter; ++j) {
      row[j] = static_cast<std::int32_t>(rng.uniform_int(0, levels - 1));
    }
  }
  return layer;
}

ActCodes random_act_codes(std::size_t count, int bits, util::Rng& rng) {
  ActCodes acts;
  acts.bits = bits;
  const int levels = 1 << bits;
  acts.scale = 0.9f / static_cast<float>(levels - 1);
  acts.codes.resize(count);
  for (std::int32_t& c : acts.codes) {
    c = static_cast<std::int32_t>(rng.uniform_int(0, levels - 1));
  }
  return acts;
}

/// ExecContext with `threads` participants (pool of threads - 1).
struct ThreadedExec {
  explicit ThreadedExec(int threads)
      : pool(threads > 1 ? std::make_unique<util::ThreadPool>(threads - 1) : nullptr),
        exec{pool.get(), threads} {}
  std::unique_ptr<util::ThreadPool> pool;
  util::ExecContext exec;
};

void expect_bytes_equal(const float* a, const float* b, std::size_t n,
                        const std::string& what) {
  ASSERT_EQ(0, std::memcmp(a, b, n * sizeof(float))) << what;
}

/// The acceptance gate: every registered backend's session over the
/// three zoo artifacts produces logits byte-identical to the scalar
/// session at every batch size and thread count.
TEST(BackendIdentity, ZooPlansByteIdenticalAcrossBackends) {
  const deploy::QuantizedArtifact artifacts[] = {serve::tiny_vgg_artifact(),
                                                 serve::tiny_mlp_artifact(),
                                                 serve::tiny_resnet_artifact()};
  for (const deploy::QuantizedArtifact& artifact : artifacts) {
    const auto plan =
        std::make_shared<const ExecutionPlan>(compile_plan(artifact));
    for (const int threads : {1, 2, 8}) {
      ThreadedExec te(threads);
      serve::EngineSession scalar(plan, 2, te.exec,
                                  make_backend(BackendKind::Scalar));
      for (const BackendKind kind : all_backend_kinds()) {
        serve::EngineSession session(plan, 2, te.exec, make_backend(kind));
        for (const int batch : {1, 3, 8}) {
          const Tensor input = serve::random_batch(
              plan->sample_shape(), batch,
              1000 + static_cast<std::uint64_t>(batch) * 7 + threads);
          const Tensor a = scalar.run(input);
          const Tensor b = session.run(input);
          ASSERT_EQ(a.shape(), b.shape());
          expect_bytes_equal(a.data(), b.data(), a.numel(),
                             artifact.arch.kind + " backend=" +
                                 backend_kind_name(kind) +
                                 " batch=" + std::to_string(batch) +
                                 " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

TEST(BackendFactory, NamesParseAndConstruct) {
  for (const BackendKind kind : all_backend_kinds()) {
    EXPECT_EQ(kind, parse_backend_kind(backend_kind_name(kind)));
    const auto backend = make_backend(kind);
    EXPECT_STREQ(backend_kind_name(kind), backend->name());
  }
  EXPECT_THROW(parse_backend_kind("turbo"), std::invalid_argument);
  try {
    parse_backend_kind("turbo");
  } catch (const std::invalid_argument& e) {
    // A typo'd --backend must name every valid option.
    EXPECT_NE(std::string(e.what()).find("(known: scalar, simd)"), std::string::npos)
        << e.what();
  }
  // The retired cache-blocked backend has no alias: stale configs fail
  // loudly instead of silently changing kernels.
  EXPECT_THROW(parse_backend_kind("blocked"), std::invalid_argument);
}

TEST(BackendFactory, UnknownKindErrorNamesValidKinds) {
  try {
    // 2 is inside the enum's value range but names no backend.
    make_backend(static_cast<BackendKind>(2));
    FAIL() << "unknown BackendKind accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    for (const BackendKind kind : all_backend_kinds()) {
      EXPECT_NE(what.find(backend_kind_name(kind)), std::string::npos) << what;
    }
  }
}

// --- SIMD backend ----------------------------------------------------

/// Explicit-kernel tiers executable on this machine: portable always,
/// avx2 when CPUID licenses it. Never kScalar, which packs no panels.
std::vector<SimdTier> reachable_simd_tiers() {
  std::vector<SimdTier> tiers = {SimdTier::kPortable};
  if (max_supported_simd_tier() == SimdTier::kAvx2) {
    tiers.push_back(SimdTier::kAvx2);
  }
  return tiers;
}

/// RAII pin of resolve_simd_tier() for tests constructing SimdBackend.
struct ForcedTier {
  explicit ForcedTier(SimdTier tier) { force_simd_tier(tier); }
  ~ForcedTier() { clear_forced_simd_tier(); }
  ForcedTier(const ForcedTier&) = delete;
  ForcedTier& operator=(const ForcedTier&) = delete;
};

TEST(BackendFactory, DispatchNamesPerOp) {
  const ExecutionPlan plan = compile_plan(serve::tiny_vgg_artifact());
  ForcedTier forced(SimdTier::kPortable);
  const auto scalar = make_backend(BackendKind::Scalar);
  const auto simd_backend = make_backend(BackendKind::Simd);
  scalar->prepare(plan);
  simd_backend->prepare(plan);
  bool saw_integer = false, saw_other = false;
  for (const PlanOp& op : plan.ops()) {
    EXPECT_STREQ("scalar", scalar->dispatch(op));
    if (op.kind == OpKind::IntConv || op.kind == OpKind::IntLinear) {
      saw_integer = true;
      EXPECT_STREQ("simd/portable", simd_backend->dispatch(op));
    } else {
      saw_other = true;
      EXPECT_STREQ("scalar", simd_backend->dispatch(op));
    }
  }
  EXPECT_TRUE(saw_integer);
  EXPECT_TRUE(saw_other);
}

TEST(BackendFactory, RunWithoutPrepareThrows) {
  const ExecutionPlan plan = compile_plan(serve::tiny_mlp_artifact());
  SimdBackend backend;  // prepare() never called
  for (const PlanOp& op : plan.ops()) {
    if (op.kind != OpKind::IntLinear) continue;
    BackendIo io;
    std::vector<float> in(plan.slots()[static_cast<std::size_t>(op.in0)].numel);
    std::vector<float> out(plan.slots()[static_cast<std::size_t>(op.out)].numel);
    io.in0 = in.data();
    io.out = out.data();
    BackendScratch scratch;
    EXPECT_THROW(backend.run(op, plan, io, scratch, {}), std::logic_error);
    return;
  }
  FAIL() << "MLP plan has no IntLinear op";
}

// Filter counts straddling the kFilterTile = 8 panel boundary (odd,
// exact multiple, one past) so tail tiles and full tiles both run, at
// every reachable tier and at activation widths that land on
// different kernels: 3-bit codes ride the int8 maddubs path on avx2
// (the shared bound proves it exact for these layers), 9-bit codes
// exceed the u8 eligibility and ride the int16 pair path, and 16-bit
// codes exceed the int16 activation pairs and ride the generic
// vector-extension kernel.
TEST(BackendIdentity, SimdConvMatchesScalarAtEveryTier) {
  struct Shape {
    int in_c, hw, filters, kernel, stride, pad;
  };
  const Shape shapes[] = {
      {3, 9, 5, 3, 1, 1},    // tiny, tail tile only
      {8, 12, 16, 3, 1, 1},  // exact tile multiple
      {6, 10, 17, 3, 2, 0},  // one past a tile boundary, strided, no pad
      {4, 7, 13, 5, 1, 2},   // odd everything, large kernel
  };
  util::Rng rng(505);
  for (const Shape& s : shapes) {
    const std::int64_t per_filter =
        static_cast<std::int64_t>(s.in_c) * s.kernel * s.kernel;
    const IntegerLayer layer = random_integer_layer(s.filters, per_filter, rng);
    for (const int act_bits : {3, 9, 16}) {
      for (const int batch : {1, 3, 8}) {
        const ActCodes acts = random_act_codes(
            static_cast<std::size_t>(batch) * s.in_c * s.hw * s.hw, act_bits, rng);
        const Tensor reference = integer_conv_forward(
            layer, acts, batch, s.in_c, s.hw, s.hw, s.kernel, s.stride, s.pad);
        for (const SimdTier tier : reachable_simd_tiers()) {
          const simd::PackedSimd packed = simd::pack_simd(layer, tier, act_bits);
          ASSERT_NE(simd::Kernel::kScalar, packed.kernel);
          if (act_bits == 16) {
            ASSERT_EQ(simd::Kernel::kGeneric, packed.kernel);
          }
          for (const int threads : {1, 2, 8}) {
            ThreadedExec te(threads);
            std::vector<float> out(reference.numel());
            std::vector<std::int32_t> cols;
            std::vector<std::int16_t> cols16;
            std::vector<std::uint8_t> cols8;
            simd::conv_forward_into(packed, acts, batch, s.in_c, s.hw, s.hw, s.kernel,
                                    s.stride, s.pad, out.data(), cols, cols16, cols8,
                                    te.exec);
            expect_bytes_equal(out.data(), reference.data(), reference.numel(),
                               std::string("simd conv ") +
                                   simd::kernel_label(packed.kernel) +
                                   " tier=" + simd_tier_name(tier) +
                                   " act_bits=" + std::to_string(act_bits) +
                                   " filters=" + std::to_string(s.filters) +
                                   " batch=" + std::to_string(batch) +
                                   " threads=" + std::to_string(threads));
          }
        }
      }
    }
  }
}

TEST(BackendIdentity, SimdLinearMatchesScalarAtEveryTier) {
  util::Rng rng(606);
  for (const int filters : {1, 8, 13, 24, 33}) {
    const int in_features = 50 + filters;
    const IntegerLayer layer = random_integer_layer(filters, in_features, rng);
    // u8-eligible / int16-pair / generic 16-bit path
    for (const int act_bits : {4, 10, 16}) {
      for (const int batch : {1, 3, 8}) {
        const ActCodes acts = random_act_codes(
            static_cast<std::size_t>(batch) * in_features, act_bits, rng);
        const Tensor reference =
            integer_linear_forward(layer, acts, batch, in_features);
        for (const SimdTier tier : reachable_simd_tiers()) {
          const simd::PackedSimd packed = simd::pack_simd(layer, tier, act_bits);
          ASSERT_NE(simd::Kernel::kScalar, packed.kernel);
          if (act_bits == 16) {
            ASSERT_EQ(simd::Kernel::kGeneric, packed.kernel);
          }
          for (const int threads : {1, 2, 8}) {
            ThreadedExec te(threads);
            std::vector<float> out(reference.numel());
            std::vector<std::int16_t> acts16;
            std::vector<std::uint8_t> acts8;
            simd::linear_forward_into(packed, acts, batch, in_features, out.data(),
                                      acts16, acts8, te.exec);
            expect_bytes_equal(out.data(), reference.data(), reference.numel(),
                               std::string("simd linear ") +
                                   simd::kernel_label(packed.kernel) +
                                   " tier=" + simd_tier_name(tier) +
                                   " act_bits=" + std::to_string(act_bits) +
                                   " filters=" + std::to_string(filters) +
                                   " batch=" + std::to_string(batch) +
                                   " threads=" + std::to_string(threads));
          }
        }
      }
    }
  }
}

// Every filter pruned: outputs must be exactly +0.0f (not bias),
// matching the fake-quant semantics of 0-bit filters. The conv sweep
// covers each conv kernel (3-bit acts: avx2-i8, 9-bit: the int16 pair
// kernels, 16-bit: generic); the linear twin follows.
TEST(BackendIdentity, PrunedRowsAreHardZero) {
  util::Rng rng(303);
  IntegerLayer layer = random_integer_layer(9, 4 * 3 * 3, rng);
  std::fill(layer.filter_bits.begin(), layer.filter_bits.end(), std::uint8_t{0});
  std::fill(layer.codes.begin(), layer.codes.end(), 0);
  for (const int act_bits : {3, 9, 16}) {
    const ActCodes acts = random_act_codes(2 * 4 * 6 * 6, act_bits, rng);
    for (const SimdTier tier : reachable_simd_tiers()) {
      const simd::PackedSimd packed = simd::pack_simd(layer, tier, act_bits);
      std::vector<float> out(2 * 9 * 6 * 6, -1.0f);
      std::vector<std::int32_t> cols;
      std::vector<std::int16_t> cols16;
      std::vector<std::uint8_t> cols8;
      simd::conv_forward_into(packed, acts, 2, 4, 6, 6, 3, 1, 1, out.data(), cols,
                              cols16, cols8);
      for (const float v : out) {
        EXPECT_EQ(0.0f, v) << simd::kernel_label(packed.kernel);
        EXPECT_FALSE(std::signbit(v));  // hard +0.0f, byte-identical to std::fill(0.0f)
      }
    }
  }
}

TEST(BackendIdentity, SimdPrunedRowsAreHardZero) {
  util::Rng rng(707);
  IntegerLayer layer = random_integer_layer(9, 18, rng);
  std::fill(layer.filter_bits.begin(), layer.filter_bits.end(), std::uint8_t{0});
  std::fill(layer.codes.begin(), layer.codes.end(), 0);
  const ActCodes acts = random_act_codes(3 * 18, 4, rng);
  for (const SimdTier tier : reachable_simd_tiers()) {
    const simd::PackedSimd packed = simd::pack_simd(layer, tier, acts.bits);
    std::vector<float> out(3 * 9, -1.0f);
    std::vector<std::int16_t> acts16;
    std::vector<std::uint8_t> acts8;
    simd::linear_forward_into(packed, acts, 3, 18, out.data(), acts16, acts8);
    for (const float v : out) {
      EXPECT_EQ(0.0f, v);
      EXPECT_FALSE(std::signbit(v));  // hard +0.0f, matching the scalar kernels
    }
  }
}

/// A pack without panels holds nothing and every kernel refuses it.
void expect_unpacked(const simd::PackedSimd& packed, const ActCodes& acts) {
  EXPECT_EQ(simd::Kernel::kScalar, packed.kernel);
  EXPECT_EQ(0u, packed.bytes());
  std::vector<float> out(static_cast<std::size_t>(packed.num_filters));
  std::vector<std::int16_t> acts16;
  std::vector<std::uint8_t> acts8;
  EXPECT_THROW(simd::linear_forward_into(packed, acts, 1,
                                         static_cast<int>(packed.weights_per_filter),
                                         out.data(), acts16, acts8),
               std::logic_error);
}

TEST(BackendIdentity, SimdHighBitLayersAreNotPackable) {
  util::Rng rng(808);
  IntegerLayer layer = random_integer_layer(4, 10, rng);
  layer.filter_bits[2] = 16;  // centered codes would overflow int16
  const ActCodes acts = random_act_codes(10, 4, rng);
  for (const SimdTier tier : reachable_simd_tiers()) {
    expect_unpacked(simd::pack_simd(layer, tier, acts.bits), acts);
  }
}

/// The backend-level face of the same cutoff: a plan layer with a
/// 16-bit filter delegates to the scalar reference at every tier while
/// the plan's other integer layers keep their SIMD kernels, and the
/// output stays byte-identical.
TEST(BackendIdentity, HighBitLayersFallBackToScalar) {
  ExecutionPlan compiled = compile_plan(serve::tiny_mlp_artifact());
  PlanRewriter(compiled).integer_layers()[0].filter_bits[0] = 16;
  ASSERT_TRUE(verify_plan(compiled).clean());
  const auto plan = std::make_shared<const ExecutionPlan>(std::move(compiled));
  serve::EngineSession scalar(plan, 1);
  const Tensor input = serve::random_batch(plan->sample_shape(), 3, 88);
  const Tensor expected = scalar.run(input);
  for (const SimdTier tier : reachable_simd_tiers()) {
    ForcedTier forced(tier);
    SimdBackend backend;
    backend.prepare(*plan);
    bool saw_simd = false;
    for (const PlanOp& op : plan->ops()) {
      if (op.kind != OpKind::IntConv && op.kind != OpKind::IntLinear) continue;
      const std::string label = backend.dispatch(op);
      if (op.layer == 0) {
        EXPECT_EQ("scalar", label) << simd_tier_name(tier);
      } else {
        saw_simd = saw_simd || label != "scalar";
      }
    }
    EXPECT_TRUE(saw_simd) << simd_tier_name(tier);
    serve::EngineSession session(plan, 1, {}, make_backend(BackendKind::Simd));
    const Tensor out = session.run(input);
    expect_bytes_equal(out.data(), expected.data(), expected.numel(),
                       std::string("16-bit layer tier=") + simd_tier_name(tier));
  }
}

TEST(BackendIdentity, SimdKernelsRefuseScalarTier) {
  util::Rng rng(909);
  const IntegerLayer layer = random_integer_layer(4, 10, rng);
  const ActCodes acts = random_act_codes(10, 4, rng);
  expect_unpacked(simd::pack_simd(layer, SimdTier::kScalar, acts.bits), acts);
  // A layer packed for a narrower activation grid refuses wider codes:
  // the kernel choice was only certified for the packed width.
  const simd::PackedSimd narrow = simd::pack_simd(layer, SimdTier::kPortable, 2);
  ASSERT_NE(simd::Kernel::kScalar, narrow.kernel);
  std::vector<float> out(4);
  std::vector<std::int16_t> acts16;
  std::vector<std::uint8_t> acts8;
  EXPECT_THROW(simd::linear_forward_into(narrow, acts, 1, 10, out.data(), acts16, acts8),
               std::logic_error);
}

/// The zoo acceptance gate extended to the simd backend: byte-identical
/// logits to the scalar session at every reachable tier, batch size,
/// and thread count — proving the runtime dispatch ("same binary,
/// different tier") preserves the contract.
TEST(BackendIdentity, ZooPlansSimdByteIdenticalAtEveryTier) {
  const deploy::QuantizedArtifact artifacts[] = {serve::tiny_vgg_artifact(),
                                                 serve::tiny_mlp_artifact(),
                                                 serve::tiny_resnet_artifact()};
  for (const SimdTier tier : reachable_simd_tiers()) {
    ForcedTier forced(tier);
    for (const deploy::QuantizedArtifact& artifact : artifacts) {
      const auto plan =
          std::make_shared<const ExecutionPlan>(compile_plan(artifact));
      for (const int threads : {1, 2, 8}) {
        ThreadedExec te(threads);
        serve::EngineSession scalar(plan, 2, te.exec,
                                    make_backend(BackendKind::Scalar));
        serve::EngineSession simd_session(plan, 2, te.exec,
                                          make_backend(BackendKind::Simd));
        for (const int batch : {1, 3, 8}) {
          const Tensor input = serve::random_batch(
              plan->sample_shape(), batch,
              2000 + static_cast<std::uint64_t>(batch) * 7 + threads);
          const Tensor a = scalar.run(input);
          const Tensor b = simd_session.run(input);
          ASSERT_EQ(a.shape(), b.shape());
          expect_bytes_equal(a.data(), b.data(), a.numel(),
                             artifact.arch.kind + " tier=" +
                                 simd_tier_name(tier) +
                                 " batch=" + std::to_string(batch) +
                                 " threads=" + std::to_string(threads));
        }
      }
    }
  }
}

/// Concurrent SimdBackend execution for the TSan lane: the prepare()-
/// built pair/quad panels are shared read-only state across sessions'
/// worker threads.
TEST(BackendIdentity, ConcurrentSimdRunsMatchScalar) {
  const deploy::QuantizedArtifact artifact = serve::tiny_resnet_artifact();
  const auto plan = std::make_shared<const ExecutionPlan>(compile_plan(artifact));
  serve::EngineSession scalar(plan, 1);
  serve::EngineSession simd_session(plan, 3, {}, make_backend(BackendKind::Simd));
  constexpr int kSubmitters = 6;
  constexpr int kRounds = 4;
  std::vector<Tensor> inputs, expected;
  for (int i = 0; i < kSubmitters; ++i) {
    inputs.push_back(serve::random_batch(plan->sample_shape(), 3,
                                         900 + static_cast<std::uint64_t>(i)));
    expected.push_back(scalar.run(inputs.back()));
  }
  std::vector<int> mismatches(kSubmitters, 0);
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kSubmitters; ++i) {
      threads.emplace_back([&, i] {
        for (int r = 0; r < kRounds; ++r) {
          const Tensor out = simd_session.run(inputs[static_cast<std::size_t>(i)]);
          if (std::memcmp(out.data(), expected[static_cast<std::size_t>(i)].data(),
                          out.numel() * sizeof(float)) != 0) {
            ++mismatches[static_cast<std::size_t>(i)];
          }
        }
      });
    }
  }
  for (int i = 0; i < kSubmitters; ++i) {
    EXPECT_EQ(0, mismatches[static_cast<std::size_t>(i)]) << "submitter " << i;
  }
}

/// dispatch() surfaces the resolved ISA: integer ops label simd/<isa>,
/// everything else delegates — the labels cqar_info's dispatch column
/// and the plan profiler rows carry.
TEST(BackendFactory, SimdDispatchNamesResolvedIsa) {
  const ExecutionPlan plan = compile_plan(serve::tiny_vgg_artifact());
  for (const SimdTier tier : reachable_simd_tiers()) {
    ForcedTier forced(tier);
    const auto backend = make_backend(BackendKind::Simd);
    backend->prepare(plan);
    bool saw_integer = false;
    for (const PlanOp& op : plan.ops()) {
      const std::string label = backend->dispatch(op);
      if (op.kind == OpKind::IntConv || op.kind == OpKind::IntLinear) {
        saw_integer = true;
        if (tier == SimdTier::kPortable) {
          EXPECT_EQ("simd/portable", label);
        } else {
          EXPECT_TRUE(label == "simd/avx2" || label == "simd/avx2-i8") << label;
        }
      } else {
        EXPECT_EQ("scalar", label);
      }
    }
    EXPECT_TRUE(saw_integer);
  }
}

/// CQ_SIMD=off / force_simd_tier(kScalar) retires the explicit kernels:
/// the backend constructs at tier scalar, packs nothing, every integer
/// op delegates to the scalar reference (the dispatch label says so),
/// and outputs stay byte-identical.
TEST(BackendFactory, SimdForcedFallbackDelegates) {
  ForcedTier forced(SimdTier::kScalar);
  const auto plan = std::make_shared<const ExecutionPlan>(
      compile_plan(serve::tiny_vgg_artifact()));
  const auto backend = make_backend(BackendKind::Simd);
  backend->prepare(*plan);
  for (const PlanOp& op : plan->ops()) {
    EXPECT_STREQ("scalar", backend->dispatch(op));
  }
  EXPECT_EQ(0u, backend->prepared_bytes());
  serve::EngineSession scalar(plan, 1);
  serve::EngineSession fallback(plan, 1, {}, make_backend(BackendKind::Simd));
  const Tensor input = serve::random_batch(plan->sample_shape(), 3, 42);
  const Tensor a = scalar.run(input);
  const Tensor b = fallback.run(input);
  expect_bytes_equal(a.data(), b.data(), a.numel(), "forced scalar-tier fallback");
}

TEST(CpuFeatures, EnvAndForceResolveTiers) {
  const char* prev = std::getenv("CQ_SIMD");
  const std::string saved = prev != nullptr ? prev : "";
  const bool had = prev != nullptr;

  ::setenv("CQ_SIMD", "off", 1);
  EXPECT_EQ(SimdTier::kScalar, resolve_simd_tier());
  ::setenv("CQ_SIMD", "scalar", 1);
  EXPECT_EQ(SimdTier::kScalar, resolve_simd_tier());
  ::setenv("CQ_SIMD", "portable", 1);
  EXPECT_EQ(SimdTier::kPortable, resolve_simd_tier());
  // "avx2", "auto", and typos all resolve to the fastest tier the CPU
  // supports — a misspelled override degrades, never crashes.
  ::setenv("CQ_SIMD", "avx2", 1);
  EXPECT_EQ(max_supported_simd_tier(), resolve_simd_tier());
  ::setenv("CQ_SIMD", "definitely-a-typo", 1);
  EXPECT_EQ(max_supported_simd_tier(), resolve_simd_tier());
  // The forced override outranks the environment.
  force_simd_tier(SimdTier::kPortable);
  EXPECT_EQ(SimdTier::kPortable, resolve_simd_tier());
  clear_forced_simd_tier();

  if (had) {
    ::setenv("CQ_SIMD", saved.c_str(), 1);
  } else {
    ::unsetenv("CQ_SIMD");
  }
  // The supported ceiling is exactly what CPUID reported.
  EXPECT_EQ(cpu_features().avx2 ? SimdTier::kAvx2 : SimdTier::kPortable,
            max_supported_simd_tier());
}

TEST(CpuFeatures, JsonNamesArchAndTier) {
  const std::string json = cpu_features_json();
  EXPECT_NE(json.find("\"arch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"avx2\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tier\""), std::string::npos) << json;
  EXPECT_NE(json.find(simd_tier_name(resolve_simd_tier())), std::string::npos)
      << json;
}

/// prepared_bytes() is exactly one layout per integer op, by the layout
/// arithmetic: int8 quad panels for avx2-i8 ops, int16 pair panels
/// otherwise, each over whole 8-filter tiles, plus a float scale and
/// bias per filter.
TEST(BackendFactory, SimdPreparedBytesAreOneLayoutPerOp) {
  const ExecutionPlan plan = compile_plan(serve::tiny_vgg_artifact());
  for (const SimdTier tier : reachable_simd_tiers()) {
    ForcedTier forced(tier);
    const auto backend = make_backend(BackendKind::Simd);
    backend->prepare(plan);
    std::size_t expected = 0;
    for (const PlanOp& op : plan.ops()) {
      if (op.kind != OpKind::IntConv && op.kind != OpKind::IntLinear) continue;
      const IntegerLayer& layer =
          plan.integer_layers()[static_cast<std::size_t>(op.layer)];
      const auto filters = static_cast<std::size_t>(layer.num_filters);
      const auto terms = static_cast<std::size_t>(layer.weights_per_filter);
      const std::size_t lanes = (filters + 7) / 8 * 8;
      const bool quads = std::string(backend->dispatch(op)) == "simd/avx2-i8";
      expected += quads ? lanes * ((terms + 3) / 4) * 4
                        : lanes * ((terms + 1) / 2) * 2 * sizeof(std::int16_t);
      expected += filters * 2 * sizeof(float);
    }
    EXPECT_EQ(expected, backend->prepared_bytes()) << simd_tier_name(tier);
  }
}

/// A reduction the int32 accumulator cannot hold — a 2400-input hidden
/// layer at 16-bit activations with the fixture's <= 4-bit weights
/// (15 * 65535 * 2400 > 2^31 - 1) — is certified int64-only by the
/// verifier, delegated to the scalar reference at every tier, and the
/// plan's output stays byte-identical.
TEST(BackendIdentity, SimdDelegatesInt64ReductionsToScalar) {
  nn::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {2400, 8};
  cfg.num_classes = 5;
  nn::Mlp model(cfg);
  const auto plan = std::make_shared<const ExecutionPlan>(
      compile_plan(serve::fabricate_artifact(model, {12}, 16, 19)));

  const VerifyReport report = verify_plan(*plan);
  ASSERT_TRUE(report.clean()) << format_diagnostics(report);
  const PlanOp* wide = nullptr;
  for (const IntOpCertificate& cert : report.certificates) {
    if (cert.terms != 2400) continue;
    EXPECT_TRUE(cert.fits_int64);
    EXPECT_FALSE(cert.int32_fast_path);
    wide = &plan->ops()[static_cast<std::size_t>(cert.op)];
  }
  ASSERT_NE(nullptr, wide) << "no 2400-term integer op in the plan";
  ASSERT_EQ(OpKind::IntLinear, wide->kind);

  serve::EngineSession scalar(plan, 1);
  const Tensor input = serve::random_batch(plan->sample_shape(), 3, 77);
  const Tensor expected = scalar.run(input);
  for (const SimdTier tier : reachable_simd_tiers()) {
    ForcedTier forced(tier);
    SimdBackend backend;
    backend.prepare(*plan);
    EXPECT_STREQ("scalar", backend.dispatch(*wide)) << simd_tier_name(tier);
    serve::EngineSession session(plan, 1, {}, make_backend(BackendKind::Simd));
    const Tensor out = session.run(input);
    expect_bytes_equal(out.data(), expected.data(), expected.numel(),
                       std::string("int64 delegation tier=") + simd_tier_name(tier));
  }
}

TEST(EngineSessionValidation, RejectsBadBatchesUpFront) {
  serve::EngineSession session(serve::tiny_mlp_artifact());  // sample shape [12]
  util::Rng rng(1);
  // Wrong rank: a bare sample without the batch dimension.
  try {
    session.run(Tensor::rand_uniform({12}, rng, 0.0f, 1.0f));
    FAIL() << "rank mismatch accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[12]"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("12 floats/sample"), std::string::npos)
        << e.what();
  }
  // Empty batch.
  try {
    session.run(Tensor({0, 12}));
    FAIL() << "empty batch accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(">= 1"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[12]"), std::string::npos) << e.what();
  }
  // Right rank, wrong per-sample size (total size not divisible into
  // samples of the plan's shape).
  try {
    session.run(Tensor::rand_uniform({2, 13}, rng, 0.0f, 1.0f));
    FAIL() << "per-sample size mismatch accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("[12]"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("[2, 13]"), std::string::npos) << e.what();
  }
  // A valid batch still runs after the failures.
  const Tensor out = session.run(Tensor::rand_uniform({3, 12}, rng, 0.0f, 1.0f));
  EXPECT_EQ(out.dim(0), 3);
}

}  // namespace
}  // namespace cq::deploy
