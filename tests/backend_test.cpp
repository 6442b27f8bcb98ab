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

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/backend.h"
#include "deploy/cpu_features.h"
#include "deploy/int_engine.h"
#include "deploy/overflow.h"
#include "deploy/plan.h"
#include "deploy/verify.h"
#include "layer_fixtures.h"
#include "nn/linear.h"
#include "nn/models/mlp.h"
#include "serve/engine_session.h"
#include "serve_fixtures.h"
#include "tensor/tensor.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cq::deploy {
namespace {

using tensor::Tensor;

/// Random IntegerLayer whose filter k has bits[k % size] bits (0 =
/// pruned: no stored row), with random codes and biases.
IntegerLayer random_integer_layer(int num_filters, std::int64_t per_filter,
                                  const std::vector<int>& bits, util::Rng& rng) {
  std::vector<std::uint8_t> widths(static_cast<std::size_t>(num_filters));
  std::vector<std::int32_t> codes(static_cast<std::size_t>(num_filters) * per_filter, 0);
  std::vector<float> bias(static_cast<std::size_t>(num_filters));
  for (int k = 0; k < num_filters; ++k) {
    const int b = bits[static_cast<std::size_t>(k) % bits.size()];
    widths[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(b);
    bias[static_cast<std::size_t>(k)] = static_cast<float>(rng.uniform(-0.5, 0.5));
    if (b == 0) continue;
    const int levels = 1 << b;
    std::int32_t* row = codes.data() + static_cast<std::size_t>(k) * per_filter;
    for (std::int64_t j = 0; j < per_filter; ++j) {
      row[j] = static_cast<std::int32_t>(rng.uniform_int(0, levels - 1));
    }
  }
  return integer_layer_from_codes(std::move(widths), per_filter, 0.8f, codes,
                                  std::move(bias));
}

/// The mixed pattern real CQ artifacts have, pruned rows included.
IntegerLayer random_integer_layer(int num_filters, std::int64_t per_filter,
                                  util::Rng& rng) {
  return random_integer_layer(num_filters, per_filter, {2, 3, 0, 1, 4, 2, 0}, rng);
}

/// `count` random grid codes stored as floats — an in_codes input.
std::vector<float> random_float_codes(std::size_t count, int bits, util::Rng& rng) {
  std::vector<float> codes(count);
  for (float& c : codes) c = static_cast<float>(rng.uniform_int(0, (1 << bits) - 1));
  return codes;
}

/// `count` raw activations for the [0, hi] x bits grid that hit every
/// edge of the encode on purpose: NaN, +-inf, -0.0, negatives, values
/// above hi, exact half steps of the grid (exact when (levels-1)/hi is
/// a power of two) and the floats just below them, and plain values.
std::vector<float> random_raw_activations(std::size_t count, float hi, int bits,
                                          util::Rng& rng) {
  const float to_code = static_cast<float>((1 << bits) - 1) / hi;
  std::vector<float> acts(count);
  for (float& a : acts) {
    const float half =
        (static_cast<float>(rng.uniform_int(0, (1 << bits) - 2)) + 0.5f) / to_code;
    switch (rng.uniform_int(0, 11)) {
      case 0: a = std::numeric_limits<float>::quiet_NaN(); break;
      case 1: a = std::numeric_limits<float>::infinity(); break;
      case 2: a = -std::numeric_limits<float>::infinity(); break;
      case 3: a = -0.0f; break;
      case 4: a = static_cast<float>(rng.uniform(-2.0, 0.0)); break;
      case 5: a = hi * static_cast<float>(rng.uniform(1.0, 3.0)); break;
      case 6: a = half; break;
      case 7: a = std::nextafter(half, 0.0f); break;
      default: a = static_cast<float>(rng.uniform(0.0, 1.1)) * hi; break;
    }
  }
  return acts;
}

/// The scalar reference's adoption of an op input (ScalarBackend's
/// cast or encode) as ActCodes.
ActCodes adopt_codes(const std::vector<float>& acts, const simd::ActGrid& grid) {
  ActCodes codes;
  if (grid.in_codes) {
    cast_codes_into(acts.data(), acts.size(), grid.hi, grid.bits, codes);
  } else {
    encode_activations_into(acts.data(), acts.size(), grid.hi, grid.bits, codes);
  }
  return codes;
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

/// Scratch sizes itself: with a default-constructed BackendScratch per
/// op (no interpreter pre-sizing), every op of the tiny VGG and ResNet
/// plans — as compiled (float stem conv, standalone BN/Relu/Add) and as
/// served (fused epilogues, propagated codes) — runs through
/// ScalarBackend::run to logits byte-identical to EngineSession's.
TEST(BackendIdentity, ScalarRunsWithFreshScratch) {
  constexpr int kBatch = 3;
  for (const deploy::QuantizedArtifact& artifact :
       {serve::tiny_vgg_artifact(), serve::tiny_resnet_artifact()}) {
    for (const auto& plan : {std::make_shared<const ExecutionPlan>(compile_plan(artifact)),
                             serve::serving_plan(artifact)}) {
      ScalarBackend backend;
      backend.prepare(*plan);
      std::vector<float> arena(plan->arena_floats() * kBatch);
      const auto slot = [&](int s) {
        return arena.data() + plan->slots()[static_cast<std::size_t>(s)].offset * kBatch;
      };
      const Tensor input = serve::random_batch(plan->sample_shape(), kBatch, 41);
      std::memcpy(slot(plan->input_slot()), input.data(), input.numel() * sizeof(float));
      for (const PlanOp& op : plan->ops()) {
        BackendIo io;
        io.in0 = slot(op.in0);
        io.in1 = op.in1 >= 0 ? slot(op.in1) : nullptr;
        io.out = slot(op.out);
        io.batch = kBatch;
        BackendScratch scratch;
        backend.run(op, *plan, io, scratch, util::ExecContext{});
      }
      const Tensor expected = serve::EngineSession(plan).run(input);
      expect_bytes_equal(slot(plan->output_slot()), expected.data(), expected.numel(),
                         artifact.arch.kind + " ops=" + std::to_string(plan->ops().size()));
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
/// avx2 and vnni when CPUID licenses them, amx when CPUID and the
/// kernel's tile permission do.
std::vector<SimdTier> reachable_simd_tiers() {
  std::vector<SimdTier> tiers = {SimdTier::kPortable};
  for (const SimdTier tier : {SimdTier::kAvx2, SimdTier::kVnni, SimdTier::kAmx}) {
    if (tier <= max_supported_simd_tier()) tiers.push_back(tier);
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

/// Activation widths that reach each conv/linear kernel: <= 8 bits ride
/// the int8 tdpbusd tiles (convs) on amx, the int8 dpbusd kernel on
/// vnni and the int8 maddubs kernel on avx2
/// when the weight bound allows it (int16 pairs otherwise), 9-15 bits
/// the int16 pair kernels, 16 bits the generic kernel. Weights stay
/// narrow enough at 16 bits that the int32 accumulator stays certified.
struct KernelClass {
  int min_act_bits, max_act_bits, max_weight_bits;
};
constexpr KernelClass kKernelClasses[] = {{1, 8, 8}, {9, 15, 8}, {16, 16, 3}};

/// A 5-filter bit pattern for one random case: one pruned slot, the
/// others 1..top bits with top itself drawn from 1..max_bits, so narrow
/// layers (the int8 kernel's domain) come up as often as wide ones.
std::vector<int> random_filter_bits(int max_bits, util::Rng& rng) {
  const auto top = rng.uniform_int(1, max_bits);
  std::vector<int> bits(5);
  for (int& b : bits) b = static_cast<int>(rng.uniform_int(1, top));
  bits[static_cast<std::size_t>(rng.uniform_int(0, 4))] = 0;
  return bits;
}

/// Every explicit kernel a reachable tier can select for an op of this
/// shape: the amx tile kernel runs convs only (linears keep vnni's).
std::vector<simd::Kernel> reachable_kernels(bool conv) {
  std::vector<simd::Kernel> kernels = {simd::Kernel::kGeneric};
  for (const SimdTier tier : reachable_simd_tiers()) {
    if (tier == SimdTier::kAmx) {
      if (conv) kernels.push_back(simd::Kernel::kAmxI8);
    } else if (tier == SimdTier::kVnni) {
      kernels.push_back(simd::Kernel::kVnniI8);
    } else if (tier == SimdTier::kAvx2) {
      kernels.push_back(simd::Kernel::kAvx2I8);
      kernels.push_back(simd::Kernel::kAvx2I16);
    } else {
      kernels.push_back(simd::Kernel::kSse2I16);
    }
  }
  return kernels;
}

/// Asserts the randomized sweep compared every reachable kernel often.
void expect_kernels_covered(const std::map<simd::Kernel, int>& compared, bool conv) {
  for (const simd::Kernel kernel : reachable_kernels(conv)) {
    const auto it = compared.find(kernel);
    EXPECT_GE(it == compared.end() ? 0 : it->second, 20)
        << "kernel " << simd::kernel_label(kernel) << " #" << static_cast<int>(kernel)
        << " barely exercised";
  }
}

/// A random fused epilogue for an op of `channels` output channels of
/// `spatial` positions over `batch` samples: each of bn / add / relu /
/// encode drawn on or off, random BN vectors, a random output grid, and
/// a residual holding every edge value of that grid (NaN, +-inf, -0.0,
/// negatives, values past the clip, half steps).
struct RandomEpilogue {
  RandomEpilogue(int channels, int out_h, int out_w, int batch, util::Rng& rng) {
    op.out_c = channels;
    op.out_h = out_h;
    op.out_w = out_w;
    op.ep_bn = rng.uniform_int(0, 1) == 1;
    op.ep_add = rng.uniform_int(0, 1) == 1;
    op.ep_relu = rng.uniform_int(0, 1) == 1;
    op.ep_encode = rng.uniform_int(0, 1) == 1;
    for (auto* v : {&op.bn_mean, &op.bn_inv_std, &op.bn_gamma, &op.bn_beta}) {
      for (int c = 0; c < channels; ++c) v->push_back(static_cast<float>(rng.uniform(-2.0, 2.0)));
    }
    op.out_bits = static_cast<int>(rng.uniform_int(1, 8));
    op.out_hi = static_cast<float>(rng.uniform(0.5, 4.0));
    residual = random_raw_activations(
        static_cast<std::size_t>(batch) * channels * out_h * out_w, op.out_hi, op.out_bits, rng);
  }

  /// The io the epilogue reads its residual from.
  BackendIo io(float* out, int batch) const {
    return BackendIo{nullptr, op.ep_add ? residual.data() : nullptr, out, batch};
  }
  std::string label() const {
    return std::string(" epilogue=") + (epilogue_suffix(op).empty() ? "-" : epilogue_suffix(op));
  }

  PlanOp op;  ///< carries the stages, the BN vectors and the output grid
  std::vector<float> residual;
};

/// Randomized differential test of the SIMD conv kernels against the
/// scalar reference (encode or cast, im2col, int64 MACs): 200 seeded
/// cases over in_c 1-40, H and W 1-19 (output widths off the 8-position
/// strip), kernel {1, 3, 5}, stride {1, 2, 3}, pad 0-2, 1-20 filters
/// (off-tile counts), weight bits 0-8 with pruned filters, activation
/// widths reaching every kernel, batch {1, 3} and threads {1, 3}, fed
/// both raw floats with every encode edge value and in_codes codes, each
/// case finishing with a random fused epilogue — byte for byte against
/// the scalar kernel followed by apply_epilogue at every reachable tier.
/// Three more cases are large enough (tens of millions of MACs, >= 2 x
/// 128K activations) that the kernel and the encoder really spread over
/// the 3-thread context.
TEST(BackendIdentity, SimdConvMatchesScalarAtEveryTier) {
  util::Rng rng(505);
  ThreadedExec threaded(3);
  std::map<simd::Kernel, int> compared;
  constexpr int kCases = 200, kLargeCases = 3;
  for (int c = 0; c < kCases + kLargeCases; ++c) {
    const bool large = c >= kCases;
    const int kernel = large ? 3 : static_cast<int>(1 + 2 * rng.uniform_int(0, 2));
    const int stride = large ? 1 + c % 2 : static_cast<int>(rng.uniform_int(1, 3));
    const int pad = large ? 1 : static_cast<int>(rng.uniform_int(0, 2));
    const int min_hw = large ? 36 : std::max(1, kernel - 2 * pad);
    const int max_hw = large ? 44 : 19;
    const int height = static_cast<int>(rng.uniform_int(min_hw, max_hw));
    const int width = static_cast<int>(rng.uniform_int(min_hw, max_hw));
    const int in_c = static_cast<int>(large ? rng.uniform_int(48, 64) : rng.uniform_int(1, 40));
    const int filters =
        static_cast<int>(large ? rng.uniform_int(17, 24) : rng.uniform_int(1, 20));
    const int batch = large || rng.uniform_int(0, 1) == 1 ? 3 : 1;
    const KernelClass& kc = kKernelClasses[c % 3];
    const int act_bits = static_cast<int>(rng.uniform_int(kc.min_act_bits, kc.max_act_bits));
    const float hi = act_bits == 16 ? 65535.0f
                     : c % 2 == 0   ? static_cast<float>((1 << act_bits) - 1) * 0.5f
                                    : static_cast<float>(rng.uniform(0.5, 4.0));
    const IntegerLayer layer = random_integer_layer(
        filters, static_cast<std::int64_t>(in_c) * kernel * kernel,
        random_filter_bits(kc.max_weight_bits, rng), rng);
    const std::size_t count = static_cast<std::size_t>(batch) * in_c * height * width;
    const int oh = (height + 2 * pad - kernel) / stride + 1;
    const int ow = (width + 2 * pad - kernel) / stride + 1;
    const RandomEpilogue tail(filters, oh, ow, batch, rng);
    const std::string shape =
        "case " + std::to_string(c) + ": in_c=" + std::to_string(in_c) + " hw=" +
        std::to_string(height) + "x" + std::to_string(width) + " k=" +
        std::to_string(kernel) + " s=" + std::to_string(stride) + " p=" +
        std::to_string(pad) + " filters=" + std::to_string(filters) + " batch=" +
        std::to_string(batch) + " act_bits=" + std::to_string(act_bits) +
        " hi=" + std::to_string(hi) + tail.label();
    for (const bool in_codes : {false, true}) {
      const simd::ActGrid grid{hi, act_bits, in_codes};
      const std::vector<float> acts = in_codes
                                          ? random_float_codes(count, act_bits, rng)
                                          : random_raw_activations(count, hi, act_bits, rng);
      Tensor reference = integer_conv_forward(layer, adopt_codes(acts, grid), batch, in_c,
                                              height, width, kernel, stride, pad);
      ASSERT_EQ(reference.numel(), static_cast<std::size_t>(batch) * filters * oh * ow);
      apply_epilogue(tail.op, tail.io(reference.data(), batch),
                     static_cast<std::size_t>(filters) * oh * ow);
      for (const SimdTier tier : reachable_simd_tiers()) {
        const simd::PackedSimd packed =
            simd::pack_simd(layer, tier, act_bits, simd::OpShape::conv(kernel));
        if (packed.kernel == simd::Kernel::kScalar) continue;  // int64-only reduction
        if (act_bits == 16) {
          ASSERT_EQ(simd::Kernel::kGeneric, packed.kernel) << shape;
        }
        for (const util::ExecContext& exec : {util::ExecContext{}, threaded.exec}) {
          std::vector<float> out(reference.numel(), -7.0f);
          std::vector<std::uint32_t> image;
          simd::conv_forward_into(packed, acts.data(), grid, batch, in_c, height, width,
                                  kernel, stride, pad, out.data(), image, exec,
                                  Epilogue(tail.op, tail.io(out.data(), batch)));
          expect_bytes_equal(out.data(), reference.data(), reference.numel(),
                             shape + (in_codes ? " in_codes" : " raw") + " kernel=" +
                                 simd::kernel_label(packed.kernel) + " tier=" +
                                 simd_tier_name(tier) +
                                 " threads=" + std::to_string(exec.threads()));
          ++compared[packed.kernel];
        }
      }
    }
  }
  expect_kernels_covered(compared, true);
}

/// The amx conv loads A tiles with tileloadd, which AddressSanitizer does
/// not instrument, so the image slack is proven here instead: over the
/// conv sweep's geometries (in_c 1-40, H and W 1-19, kernel 1/3/5,
/// stride 1-3, pad 0-2, batch 1 and 3), the last byte the kernel's
/// A-tile addressing reads lies inside the image the encoder allocates.
TEST(BackendIdentity, SimdTileLoadsStayInsideTheImage) {
  int geometries = 0;
  for (int in_c = 1; in_c <= 40; ++in_c) {
    for (const int kernel : {1, 3, 5}) {
      for (int stride = 1; stride <= 3; ++stride) {
        for (int pad = 0; pad <= 2; ++pad) {
          for (int height = std::max(1, kernel - 2 * pad); height <= 19; ++height) {
            for (int width = std::max(1, kernel - 2 * pad); width <= 19; ++width) {
              for (const int batch : {1, 3}) {
                const simd::TileImageBounds bounds =
                    simd::tile_image_bounds(batch, in_c, height, width, kernel, stride, pad);
                ASSERT_LE(bounds.read_end, bounds.image_bytes)
                    << "in_c=" << in_c << " hw=" << height << "x" << width << " k=" << kernel
                    << " s=" << stride << " p=" << pad << " batch=" << batch;
                ++geometries;
              }
            }
          }
        }
      }
    }
  }
  EXPECT_GT(geometries, 100'000);
}

/// The amx layout arithmetic PackedSimd documents for one kernel row:
/// pixel = channels rounded up to 4 bytes, and the run of kernel x
/// pixel bytes split into `chunks` equal K-chunks of `chunk` bytes (a
/// multiple of 4, at most 64).
struct AmxRun {
  AmxRun(std::size_t channels, std::size_t kernel)
      : pixel((channels + 3) / 4 * 4),
        chunks((kernel * pixel + 63) / 64),
        chunk(((kernel * pixel + chunks - 1) / chunks + 3) / 4 * 4) {}
  std::size_t pixel, chunks, chunk;
};

/// The amx panels read back through the layout PackedSimd documents:
/// [16-filter block][ky][row][filter] words whose byte o % 4 of row o / 4
/// holds the centered code of (c, ky, kx) for run byte o = kx * pixel + c
/// (pixel = channels rounded up to 4), against decode_rows, and zero
/// everywhere else. Packing runs no AMX instruction, so this runs on every
/// x86 machine, with or without AMX.
TEST(BackendIdentity, SimdAmxPanelsFollowTheDocumentedLayout) {
  util::Rng rng(1212);
  for (int c = 0; c < 40; ++c) {
    const int kernel = static_cast<int>(1 + 2 * rng.uniform_int(0, 2));
    const int channels = static_cast<int>(rng.uniform_int(1, 40));
    const int filters = static_cast<int>(rng.uniform_int(1, 40));
    const std::int64_t per_filter = static_cast<std::int64_t>(channels) * kernel * kernel;
    const IntegerLayer layer =
        random_integer_layer(filters, per_filter, random_filter_bits(4, rng), rng);
    const simd::PackedSimd packed =
        simd::pack_simd(layer, SimdTier::kAmx, 2, simd::OpShape::conv(kernel));
    ASSERT_EQ(simd::Kernel::kAmxI8, packed.kernel);
    const AmxRun run(static_cast<std::size_t>(channels), static_cast<std::size_t>(kernel));
    const std::size_t pixel = run.pixel, chunks = run.chunks, chunk = run.chunk;
    ASSERT_LE(chunk, 64u);
    const std::size_t blocks = (static_cast<std::size_t>(filters) + 15) / 16;
    ASSERT_EQ(blocks * kernel * chunks * chunk * 16, packed.panels.size() * 4);
    const std::vector<std::int32_t> rows = decode_rows(layer);
    const auto* bytes = reinterpret_cast<const std::int8_t*>(packed.panels.data());
    for (std::size_t i = 0; i < packed.panels.size() * 4; ++i) {
      const std::size_t filter = i / (kernel * chunks * chunk * 16) * 16 + i / 4 % 16;
      const std::size_t ky = i / (chunks * chunk * 16) % kernel;
      const std::size_t o = i % (chunks * chunk * 16) / 64 * 4 + i % 4;
      const std::size_t kx = o / pixel, ch = o % pixel;
      std::int32_t want = 0;
      if (filter < static_cast<std::size_t>(filters) && kx < static_cast<std::size_t>(kernel) &&
          ch < static_cast<std::size_t>(channels) && layer.filter_bits[filter] > 0) {
        const std::int32_t code =
            rows[filter * static_cast<std::size_t>(per_filter) +
                 ch * static_cast<std::size_t>(kernel * kernel) + ky * kernel + kx];
        want = 2 * code - ((1 << layer.filter_bits[filter]) - 1);
      }
      ASSERT_EQ(want, bytes[i]) << "case " << c << " byte " << i << " filter " << filter
                                << " ky " << ky << " o " << o;
    }
  }
}

/// The linear twin: raw floats go through the row encoder, codes
/// through the cast, across feature counts off the word boundary, each
/// case with a random fused epilogue (output feature k is channel k);
/// the last three cases are large enough to spread over threads.
TEST(BackendIdentity, SimdLinearMatchesScalarAtEveryTier) {
  util::Rng rng(606);
  ThreadedExec threaded(3);
  std::map<simd::Kernel, int> compared;
  constexpr int kCases = 120, kLargeCases = 3;
  for (int c = 0; c < kCases + kLargeCases; ++c) {
    const bool large = c >= kCases;
    const int in_features =
        static_cast<int>(large ? rng.uniform_int(1200, 1500) : rng.uniform_int(1, 300));
    const int filters =
        static_cast<int>(large ? rng.uniform_int(500, 520) : rng.uniform_int(1, 40));
    const int batch = static_cast<int>(large ? 9 : rng.uniform_int(1, 9));
    const KernelClass& kc = kKernelClasses[c % 3];
    const int act_bits = static_cast<int>(rng.uniform_int(kc.min_act_bits, kc.max_act_bits));
    const float hi = c % 2 == 0 ? static_cast<float>((1 << act_bits) - 1)
                                : static_cast<float>(rng.uniform(0.5, 4.0));
    const IntegerLayer layer = random_integer_layer(
        filters, in_features, random_filter_bits(kc.max_weight_bits, rng), rng);
    const RandomEpilogue tail(filters, 1, 1, batch, rng);
    const std::string shape = "case " + std::to_string(c) + ": in=" +
                              std::to_string(in_features) + " filters=" +
                              std::to_string(filters) + " batch=" + std::to_string(batch) +
                              " act_bits=" + std::to_string(act_bits) + tail.label();
    for (const bool in_codes : {false, true}) {
      const simd::ActGrid grid{hi, act_bits, in_codes};
      const std::size_t count = static_cast<std::size_t>(batch) * in_features;
      const std::vector<float> acts = in_codes
                                          ? random_float_codes(count, act_bits, rng)
                                          : random_raw_activations(count, hi, act_bits, rng);
      Tensor reference =
          integer_linear_forward(layer, adopt_codes(acts, grid), batch, in_features);
      apply_epilogue(tail.op, tail.io(reference.data(), batch), static_cast<std::size_t>(filters));
      for (const SimdTier tier : reachable_simd_tiers()) {
        const simd::PackedSimd packed =
            simd::pack_simd(layer, tier, act_bits, simd::OpShape::linear());
        if (packed.kernel == simd::Kernel::kScalar) continue;
        if (act_bits == 16) {
          ASSERT_EQ(simd::Kernel::kGeneric, packed.kernel) << shape;
        }
        for (const util::ExecContext& exec : {util::ExecContext{}, threaded.exec}) {
          std::vector<float> out(reference.numel(), -7.0f);
          std::vector<std::uint32_t> image;
          simd::linear_forward_into(packed, acts.data(), grid, batch, in_features,
                                    out.data(), image, exec,
                                    Epilogue(tail.op, tail.io(out.data(), batch)));
          expect_bytes_equal(out.data(), reference.data(), reference.numel(),
                             shape + (in_codes ? " in_codes" : " raw") + " kernel=" +
                                 simd::kernel_label(packed.kernel) + " tier=" +
                                 simd_tier_name(tier) +
                                 " threads=" + std::to_string(exec.threads()));
          ++compared[packed.kernel];
        }
      }
    }
  }
  expect_kernels_covered(compared, false);
}

/// EncodeAct over every edge value of its grid (NaN, +-inf, -0.0,
/// negatives, values past the clip, exact half steps and the floats just
/// below them): SimdBackend::run — the AVX2 pass and its scalar tail
/// (some of the zoo MLP's feature counts end off the 8-lane boundary),
/// or the delegated portable tier — writes ScalarBackend::run's bytes at
/// every reachable tier, batch 1 and 3, into another slot and in place.
TEST(BackendIdentity, SimdEncodeActMatchesScalarAtEveryTier) {
  util::Rng rng(707);
  int runs = 0, tails = 0;
  for (const deploy::QuantizedArtifact& artifact :
       {serve::tiny_mlp_artifact(), serve::tiny_vgg_artifact(), serve::tiny_resnet_artifact()}) {
    const ExecutionPlan plan = compile_plan(artifact);
    ScalarBackend scalar;
    for (const PlanOp& op : plan.ops()) {
      if (op.kind != OpKind::EncodeAct) continue;
      for (const int batch : {1, 3}) {
        const std::size_t count =
            plan.slots()[static_cast<std::size_t>(op.out)].numel * static_cast<std::size_t>(batch);
        const std::vector<float> in = random_raw_activations(count, op.act_hi, op.act_bits, rng);
        std::vector<float> expected(count);
        BackendScratch scratch;
        scalar.run(op, plan, BackendIo{in.data(), nullptr, expected.data(), batch}, scratch, {});
        for (const SimdTier tier : reachable_simd_tiers()) {
          ForcedTier forced(tier);
          SimdBackend simd_backend;
          simd_backend.prepare(plan);
          const std::string what = artifact.arch.kind + " " + op.label + " batch=" +
                                   std::to_string(batch) + " tier=" + simd_tier_name(tier);
          std::vector<float> out(count, -7.0f), in_place = in;
          simd_backend.run(op, plan, BackendIo{in.data(), nullptr, out.data(), batch}, scratch,
                           {});
          expect_bytes_equal(out.data(), expected.data(), count, what);
          simd_backend.run(op, plan, BackendIo{in_place.data(), nullptr, in_place.data(), batch},
                           scratch, {});
          expect_bytes_equal(in_place.data(), expected.data(), count, what + " in place");
        }
        ++runs;
        tails += count % 8 != 0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(runs, 20);
  EXPECT_GT(tails, 0);
}

/// A one-op plan around `op` (through PlanRewriter): slot 0 its input of
/// `in_numel` floats per sample, slot 1 the residual and slot 2 the
/// output, `out_numel` each, so both backends' run() can execute it.
ExecutionPlan single_op_plan(PlanOp op, std::size_t in_numel, std::size_t out_numel) {
  ExecutionPlan plan;
  PlanRewriter rewriter(plan);
  rewriter.slots().resize(3);
  rewriter.slots()[0].numel = in_numel;
  rewriter.slots()[1].numel = out_numel;
  rewriter.slots()[2].numel = out_numel;
  op.in0 = 0;
  op.in1 = op.ep_add ? 1 : -1;
  op.out = 2;
  rewriter.ops().push_back(std::move(op));
  return plan;
}

/// A quiet NaN of payload `bits`, by default one that is neither the
/// default NaN's (0xffc00000, which 0 * inf and inf - inf make) nor
/// std::numeric_limits' (0x7fc00000).
float payload_nan(std::uint32_t bits = 0x7fc0beefu) {
  float f = 0.0f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

/// Runs `op` of `plan` on ScalarBackend and then on SimdBackend at every
/// reachable tier, batch `batch`, serial and on `threaded`, byte for byte;
/// counts the runs whose dispatch label is not "scalar" in `simd_runs`.
void expect_op_matches_scalar(const ExecutionPlan& plan, const std::vector<float>& in,
                              const std::vector<float>& residual, int batch,
                              const util::ExecContext& threaded, const std::string& what,
                              int& simd_runs) {
  const PlanOp& op = plan.ops().front();
  const std::size_t count = plan.slots()[2].numel * static_cast<std::size_t>(batch);
  std::vector<float> expected(count, -7.0f);
  BackendScratch scratch;
  ScalarBackend().run(op, plan, BackendIo{in.data(), residual.data(), expected.data(), batch},
                      scratch, {});
  for (const SimdTier tier : reachable_simd_tiers()) {
    ForcedTier forced(tier);
    SimdBackend backend;
    backend.prepare(plan);
    const std::string label = backend.dispatch(op);
    for (const util::ExecContext& exec : {util::ExecContext{}, threaded}) {
      std::vector<float> out(count, -7.0f);
      backend.run(op, plan, BackendIo{in.data(), residual.data(), out.data(), batch}, scratch,
                  exec);
      expect_bytes_equal(out.data(), expected.data(), count,
                         what + " tier=" + simd_tier_name(tier) + " dispatch=" + label +
                             " threads=" + std::to_string(exec.threads()));
      simd_runs += label != "scalar" ? 1 : 0;
    }
  }
}

/// Randomized differential test of the float conv (the stem over the raw
/// image) through both backends' run(): 160 seeded cases over channels
/// 1-8, H and W 1-19 (output widths off the 8-position block), kernel
/// {1, 3, 5}, pad 0-2, 1-20 filters, stride 1 (the simd/avx2 loop at the
/// tiers with AVX2) and stride 2 (delegated), batch {1, 3}, threads
/// {1, 3}, each finishing with a random fused epilogue (a residual
/// holding NaN, a random output grid). Inputs carry a NaN whose payload
/// is not the default NaN's next to +inf/-inf pairs whose sum is the
/// default NaN, so a sum that swaps its operands keeps the wrong payload;
/// +-inf, -0.0 and +-3e38 too. Weights include zero, -0.0 (skipped, so
/// 0 * inf is never summed), inf (pad taps make 0 * inf) and NaN (the
/// inputs' payload: which payload a NaN-times-NaN product keeps is not
/// defined); biases zero, -0.0, +-inf, plain, or a NaN of a third
/// payload, which a NaN sum must not take. Two more cases are large
/// enough that the loop spreads over the 3-thread context.
TEST(BackendIdentity, SimdFloatConvMatchesScalarAtEveryTier) {
  util::Rng rng(909);
  ThreadedExec threaded(3);
  const float inf = std::numeric_limits<float>::infinity();
  int simd_runs = 0;
  constexpr int kCases = 160, kLargeCases = 2;
  for (int c = 0; c < kCases + kLargeCases; ++c) {
    const bool large = c >= kCases;
    PlanOp op;
    op.kind = OpKind::FloatConv;
    op.label = "case" + std::to_string(c);
    op.kernel = large ? 5 : static_cast<int>(1 + 2 * rng.uniform_int(0, 2));
    op.stride = !large && c % 4 == 3 ? 2 : 1;
    op.pad = large ? 2 : static_cast<int>(rng.uniform_int(0, 2));
    const int min_hw = std::max(1, op.kernel - 2 * op.pad);
    op.in_c = static_cast<int>(large ? 8 : rng.uniform_int(1, 8));
    op.in_h = static_cast<int>(large ? rng.uniform_int(36, 44) : rng.uniform_int(min_hw, 19));
    op.in_w = static_cast<int>(large ? rng.uniform_int(36, 44) : rng.uniform_int(min_hw, 19));
    op.out_c = static_cast<int>(large ? rng.uniform_int(17, 20) : rng.uniform_int(1, 20));
    op.out_h = (op.in_h + 2 * op.pad - op.kernel) / op.stride + 1;
    op.out_w = (op.in_w + 2 * op.pad - op.kernel) / op.stride + 1;
    const int batch = large || rng.uniform_int(0, 1) == 1 ? 3 : 1;
    const auto taps = static_cast<std::size_t>(op.in_c) * op.kernel * op.kernel;
    // Each case draws how often its weights and inputs take edge values,
    // so some outputs stay finite and others meet every edge.
    const double weight_edges = std::array{0.0, 1.0 / 64, 1.0 / 16}[rng.uniform_int(0, 2)];
    const double input_edges = std::array{1.0 / 256, 1.0 / 32, 1.0 / 8}[rng.uniform_int(0, 2)];
    op.weight = Tensor({op.out_c, static_cast<int>(taps)});
    for (std::size_t i = 0; i < op.weight.numel(); ++i) {
      const double u = rng.uniform();
      const float edges[] = {inf, -inf, payload_nan()};
      op.weight.data()[i] = u < 1.0 / 8    ? 0.0f
                            : u < 3.0 / 16 ? -0.0f
                            : u < 3.0 / 16 + weight_edges
                                ? edges[rng.uniform_int(0, 2)]
                                : static_cast<float>(rng.uniform(-1.5, 1.5));
    }
    for (int k = 0; k < op.out_c; ++k) {
      const auto pick = rng.uniform_int(0, 5);
      op.bias.push_back(pick == 0   ? 0.0f
                        : pick == 1 ? -0.0f
                        : pick == 2 ? payload_nan(0x7fc0cafeu)
                        : pick == 3 ? (rng.uniform_int(0, 1) == 0 ? inf : -inf)
                                    : static_cast<float>(rng.uniform(-1.0, 1.0)));
    }
    const std::size_t in_numel = static_cast<std::size_t>(op.in_c) * op.in_h * op.in_w;
    std::vector<float> in(in_numel * static_cast<std::size_t>(batch));
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = rng.uniform() < 1.0 / 32 ? -0.0f : static_cast<float>(rng.uniform(-2.0, 2.0));
      if (rng.uniform() >= input_edges) continue;
      switch (rng.uniform_int(0, 3)) {
        case 0: in[i] = payload_nan(); break;
        case 1:  // a +inf, -inf pair: one kernel row sums both into the default NaN
          in[i] = inf;
          if (i + 1 < in.size()) in[++i] = -inf;
          break;
        case 2: in[i] = -inf; break;
        default: in[i] = rng.uniform_int(0, 1) == 0 ? 3e38f : -3e38f; break;
      }
    }
    const RandomEpilogue tail(op.out_c, op.out_h, op.out_w, batch, rng);
    for (const bool fused : {false, true}) {
      PlanOp run_op = op;
      if (fused) {
        run_op.ep_bn = tail.op.ep_bn;
        run_op.ep_add = tail.op.ep_add;
        run_op.ep_relu = tail.op.ep_relu;
        run_op.ep_encode = tail.op.ep_encode;
        run_op.bn_mean = tail.op.bn_mean;
        run_op.bn_inv_std = tail.op.bn_inv_std;
        run_op.bn_gamma = tail.op.bn_gamma;
        run_op.bn_beta = tail.op.bn_beta;
        run_op.out_hi = tail.op.out_hi;
        run_op.out_bits = tail.op.out_bits;
      }
      const ExecutionPlan plan = single_op_plan(
          run_op, in_numel, static_cast<std::size_t>(op.out_c) * op.out_h * op.out_w);
      const std::string what =
          "case " + std::to_string(c) + ": in_c=" + std::to_string(op.in_c) + " hw=" +
          std::to_string(op.in_h) + "x" + std::to_string(op.in_w) + " k=" +
          std::to_string(op.kernel) + " s=" + std::to_string(op.stride) + " p=" +
          std::to_string(op.pad) + " filters=" + std::to_string(op.out_c) +
          " batch=" + std::to_string(batch) + (fused ? tail.label() : std::string(" epilogue=-"));
      expect_op_matches_scalar(plan, in, tail.residual, batch, threaded.exec, what, simd_runs);
    }
  }
  // The stride-1 cases ran the simd loop at every tier with AVX2.
  if (max_supported_simd_tier() >= SimdTier::kAvx2) {
    EXPECT_GT(simd_runs, 400);
  }
}

/// Randomized differential test of MaxPool through both backends' run():
/// kernel/stride 2/2 (VGG-small's), 3/2, 3/1 and 2/1, output widths and
/// heights 1-9 (VGG-small's last pool is 4 wide, so whole rows run as a
/// partial block), 1-8 channels, batch {1, 3}, inputs drawn from NaN
/// (two payloads), +-0, +-inf and a few repeated values, so ties between
/// -0.0 and +0.0 and NaN against every other value decide which operand
/// maxps must return.
TEST(BackendIdentity, SimdMaxPoolMatchesScalarAtEveryTier) {
  util::Rng rng(1111);
  ThreadedExec threaded(3);
  const float inf = std::numeric_limits<float>::infinity();
  const float values[] = {payload_nan(), std::numeric_limits<float>::quiet_NaN(), 0.0f, -0.0f,
                          -inf, inf, 1.0f, -1.0f, 2.5f};
  const int geometries[][2] = {{2, 2}, {3, 2}, {3, 1}, {2, 1}};
  int simd_runs = 0;
  for (int c = 0; c < 80; ++c) {
    PlanOp op;
    op.kind = OpKind::MaxPool;
    op.kernel = geometries[c % 4][0];
    op.stride = geometries[c % 4][1];
    op.in_c = static_cast<int>(rng.uniform_int(1, 8));
    op.out_c = op.in_c;
    op.out_h = static_cast<int>(rng.uniform_int(1, 9));
    op.out_w = static_cast<int>(rng.uniform_int(1, 9));
    // Inputs past the last window (the floor in the output size) stay unread.
    op.in_h = (op.out_h - 1) * op.stride + op.kernel + static_cast<int>(rng.uniform_int(0, op.stride - 1));
    op.in_w = (op.out_w - 1) * op.stride + op.kernel + static_cast<int>(rng.uniform_int(0, op.stride - 1));
    const int batch = rng.uniform_int(0, 1) == 1 ? 3 : 1;
    const std::size_t in_numel = static_cast<std::size_t>(op.in_c) * op.in_h * op.in_w;
    std::vector<float> in(in_numel * static_cast<std::size_t>(batch));
    for (float& v : in) {
      v = rng.uniform_int(0, 3) == 0 ? static_cast<float>(rng.uniform(-3.0, 3.0))
                                     : values[rng.uniform_int(0, 8)];
    }
    const ExecutionPlan plan =
        single_op_plan(op, in_numel, static_cast<std::size_t>(op.in_c) * op.out_h * op.out_w);
    expect_op_matches_scalar(plan, in, {}, batch, threaded.exec,
                             "case " + std::to_string(c) + ": k=" + std::to_string(op.kernel) +
                                 " s=" + std::to_string(op.stride) + " in_c=" +
                                 std::to_string(op.in_c) + " out=" + std::to_string(op.out_h) +
                                 "x" + std::to_string(op.out_w) + " batch=" +
                                 std::to_string(batch),
                             simd_runs);
  }
  if (max_supported_simd_tier() >= SimdTier::kAvx2) {
    EXPECT_GT(simd_runs, 200);
  }
}

/// Random codes never drive every lane to its worst case, so this pins
/// each MAC instruction at the edge of the certificate that selected it:
/// filters alternate all-max and all-zero codes (centered +-max|w|)
/// against activations at the top code, so each filter's products share
/// one sign and its sum reaches the bound. Each edge runs through the
/// linear kernel and a 1x1 conv over a 3x3 image (one tail strip), raw
/// and in_codes, batch 3, at every reachable tier, byte for byte against
/// scalar; at amx the conv runs on tiles wherever vnni runs vpdpbusd.
/// One more term past an int32 edge delegates to scalar.
TEST(BackendIdentity, SimdKernelsExactAtCertifiedEdge) {
  struct Edge {
    int weight_bits, act_bits;
    std::int64_t terms;
    std::int64_t bound;                 // max|w| * act_max * terms
    simd::Kernel vnni, avx2, portable;  // the kernel each tier must select
  };
  constexpr std::int64_t kInt32Max = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kInt32Edge = kInt32Max - 98'302;
  const Edge edges[] = {
      // maddubs pair sums of +-2 * 127 * 127 = 32,258: the most
      // int_reduction_fits_int8_madd admits.
      {7, 7, 131, 127LL * 127 * 131, simd::Kernel::kVnniI8, simd::Kernel::kAvx2I8,
       simd::Kernel::kSse2I16},
      // Dot-only: pair sums of +-2 * 127 * 255 = 64,770 would saturate
      // maddubs, while dpbusd sums its quads of +-4 * 127 * 255 exactly.
      {7, 8, 131, 127LL * 255 * 131, simd::Kernel::kVnniI8, simd::Kernel::kAvx2I16,
       simd::Kernel::kSse2I16},
      // The dot-only layer at its int32 edge, |acc| = 127 * 255 * 66,311.
      {7, 8, 66'311, 127LL * 255 * 66'311, simd::Kernel::kVnniI8, simd::Kernel::kAvx2I16,
       simd::Kernel::kSse2I16},
      // |acc| = 255 * 32,767 * 257 on the int16 pair kernels.
      {8, 15, 257, kInt32Edge, simd::Kernel::kAvx2I16, simd::Kernel::kAvx2I16,
       simd::Kernel::kSse2I16},
      // The same |acc| = 7 * 65,535 * 4,681 on the generic kernel.
      {3, 16, 4681, kInt32Edge, simd::Kernel::kGeneric, simd::Kernel::kGeneric,
       simd::Kernel::kGeneric},
  };
  constexpr int kBatch = 3, kFilters = 10, kPixels = 3 * 3;
  for (const Edge& e : edges) {
    const auto alternating_layer = [&](std::int64_t terms) {
      const auto per_filter = static_cast<std::size_t>(terms);
      std::vector<std::int32_t> codes(kFilters * per_filter);
      std::vector<float> bias(kFilters);
      for (std::size_t k = 0; k < kFilters; ++k) {
        std::fill_n(codes.begin() + static_cast<std::ptrdiff_t>(k * per_filter), per_filter,
                    k % 2 == 0 ? (1 << e.weight_bits) - 1 : 0);
        bias[k] = 0.125f * static_cast<float>(k) - 0.5f;
      }
      return integer_layer_from_codes(
          std::vector<std::uint8_t>(kFilters, static_cast<std::uint8_t>(e.weight_bits)), terms,
          0.8f, codes, std::move(bias));
    };
    const IntegerLayer layer = alternating_layer(e.terms);
    const std::string edge = std::to_string(e.weight_bits) + "-bit weights x " +
                             std::to_string(e.act_bits) + "-bit activations x " +
                             std::to_string(e.terms) + " terms";
    ASSERT_EQ(e.bound, int_reduction_bound(max_abs_centered_code(layer), e.act_bits, e.terms))
        << edge;
    const auto in_features = static_cast<int>(e.terms);
    const auto count = static_cast<std::size_t>(kBatch) * in_features;
    for (const bool in_codes : {false, true}) {
      const simd::ActGrid grid{1.0f, e.act_bits, in_codes};
      // Top-code activations: the code itself, or raw values at and
      // past the clip at hi = 1.
      const float top_code = static_cast<float>((1 << e.act_bits) - 1);
      std::vector<float> acts(count * kPixels);
      for (std::size_t i = 0; i < acts.size(); ++i) {
        const float raw = i % 2 == 0 ? 1.0f : 3.0f;
        acts[i] = in_codes ? top_code : raw;
      }
      const std::vector<float> linear_acts(acts.begin(),
                                           acts.begin() + static_cast<std::ptrdiff_t>(count));
      const Tensor linear_ref =
          integer_linear_forward(layer, adopt_codes(linear_acts, grid), kBatch, in_features);
      const Tensor conv_ref = integer_conv_forward(layer, adopt_codes(acts, grid), kBatch,
                                                   in_features, 3, 3, 1, 1, 0);
      for (const SimdTier tier : reachable_simd_tiers()) {
        const std::string what = edge + (in_codes ? " in_codes" : " raw") + " tier=" +
                                 simd_tier_name(tier);
        const simd::PackedSimd linear =
            simd::pack_simd(layer, tier, e.act_bits, simd::OpShape::linear());
        const simd::PackedSimd conv =
            simd::pack_simd(layer, tier, e.act_bits, simd::OpShape::conv(1));
        const simd::Kernel want = tier >= SimdTier::kVnni ? e.vnni
                                  : tier == SimdTier::kAvx2 ? e.avx2
                                                            : e.portable;
        ASSERT_EQ(want, linear.kernel) << what;
        ASSERT_EQ(tier == SimdTier::kAmx && want == simd::Kernel::kVnniI8 ? simd::Kernel::kAmxI8
                                                                          : want,
                  conv.kernel)
            << what;
        std::vector<std::uint32_t> image;
        std::vector<float> out(linear_ref.numel(), -7.0f);
        simd::linear_forward_into(linear, linear_acts.data(), grid, kBatch, in_features,
                                  out.data(), image);
        expect_bytes_equal(out.data(), linear_ref.data(), out.size(), what + " linear");
        out.assign(conv_ref.numel(), -7.0f);
        simd::conv_forward_into(conv, acts.data(), grid, kBatch, in_features, 3, 3, 1, 1, 0,
                                out.data(), image);
        expect_bytes_equal(out.data(), conv_ref.data(), out.size(), what + " conv");
      }
    }
    if (int_reduction_bound(max_abs_centered_code(layer), e.act_bits, e.terms + 1) >
        kInt32Max) {
      const IntegerLayer past = alternating_layer(e.terms + 1);
      for (const SimdTier tier : reachable_simd_tiers()) {
        for (const simd::OpShape shape : {simd::OpShape::linear(), simd::OpShape::conv(1)}) {
          EXPECT_EQ(simd::Kernel::kScalar, simd::pack_simd(past, tier, e.act_bits, shape).kernel)
              << edge << " + 1 term, tier=" << simd_tier_name(tier);
        }
      }
    }
  }
}

/// A NaN reaching an integer op encodes to code 0 (activation 0.0) on
/// every path: the scalar encode, the fused ep_encode epilogue, and the
/// SIMD image encoder — so one NaN pixel cannot split the backends.
TEST(BackendIdentity, NanActivationsEncodeToZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> acts = {0.4f, nan, 0.9f, -inf, inf, -0.0f};
  ActCodes codes;
  encode_activations_into(acts.data(), acts.size(), 0.9f, 2, codes);
  EXPECT_EQ((std::vector<std::int32_t>{1, 0, 3, 0, 3, 0}), codes.codes);

  PlanOp op;
  op.kind = OpKind::IntLinear;
  op.ep_encode = true;
  op.out_hi = 0.9f;
  op.out_bits = 2;
  std::vector<float> out = acts;
  BackendIo io;
  io.out = out.data();
  apply_epilogue(op, io, out.size());
  EXPECT_EQ((std::vector<float>{1.0f, 0.0f, 3.0f, 0.0f, 3.0f, 0.0f}), out);

  // One NaN pixel in a conv input: every tier matches the scalar bytes.
  util::Rng rng(404);
  const IntegerLayer layer = random_integer_layer(8, 4 * 3 * 3, rng);
  std::vector<float> image = random_float_codes(4 * 6 * 6, 2, rng);
  for (float& v : image) v /= 3.0f;  // raw activations on the [0, 1] grid
  image[40] = nan;
  const simd::ActGrid grid{1.0f, 2, false};
  const Tensor reference =
      integer_conv_forward(layer, adopt_codes(image, grid), 1, 4, 6, 6, 3, 1, 1);
  for (const SimdTier tier : reachable_simd_tiers()) {
    const simd::PackedSimd packed = simd::pack_simd(layer, tier, 2, simd::OpShape::conv(3));
    std::vector<float> simd_out(reference.numel());
    std::vector<std::uint32_t> scratch;
    simd::conv_forward_into(packed, image.data(), grid, 1, 4, 6, 6, 3, 1, 1,
                            simd_out.data(), scratch);
    expect_bytes_equal(simd_out.data(), reference.data(), reference.numel(),
                       std::string("NaN pixel tier=") + simd_tier_name(tier));
  }
}

/// The fused epilogue spreads over threads only past its element grain;
/// chunked or not, the elementwise pass writes the same bytes.
TEST(BackendIdentity, ThreadedEpilogueMatchesSerial) {
  util::Rng rng(202);
  PlanOp op;
  op.kind = OpKind::IntConv;
  op.out_c = 16;
  op.out_h = op.out_w = 48;
  op.ep_bn = op.ep_add = op.ep_relu = op.ep_encode = true;
  op.out_hi = 1.5f;
  op.out_bits = 3;
  for (auto* v : {&op.bn_mean, &op.bn_inv_std, &op.bn_gamma, &op.bn_beta}) {
    for (int c = 0; c < op.out_c; ++c) v->push_back(static_cast<float>(rng.uniform(0.2, 1.2)));
  }
  const std::size_t per_sample = static_cast<std::size_t>(op.out_c) * 48 * 48;
  const int batch = 8;  // 295K elements: past the grain at 3 threads
  std::vector<float> in(per_sample * batch), residual(per_sample * batch);
  for (float& v : in) v = static_cast<float>(rng.uniform(-1.0, 2.0));
  for (float& v : residual) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  std::vector<float> serial = in, threaded = in;
  BackendIo io;
  io.in1 = residual.data();
  io.batch = batch;
  io.out = serial.data();
  apply_epilogue(op, io, per_sample);
  ThreadedExec te(3);
  io.out = threaded.data();
  apply_epilogue(op, io, per_sample, te.exec);
  expect_bytes_equal(threaded.data(), serial.data(), serial.size(), "threaded epilogue");
}

// Every filter pruned: outputs must be exactly +0.0f (not bias),
// matching the fake-quant semantics of 0-bit filters. The conv sweep
// covers each conv kernel (3-bit acts: avx2-i8, 9-bit: the int16 pair
// kernels, 16-bit: generic); the linear twin follows.
TEST(BackendIdentity, PrunedRowsAreHardZero) {
  util::Rng rng(303);
  const IntegerLayer layer = random_integer_layer(9, 4 * 3 * 3, {0}, rng);
  for (const int act_bits : {3, 9, 16}) {
    const std::vector<float> acts = random_float_codes(2 * 4 * 6 * 6, act_bits, rng);
    for (const SimdTier tier : reachable_simd_tiers()) {
      const simd::PackedSimd packed =
          simd::pack_simd(layer, tier, act_bits, simd::OpShape::conv(3));
      std::vector<float> out(2 * 9 * 6 * 6, -1.0f);
      std::vector<std::uint32_t> image;
      simd::conv_forward_into(packed, acts.data(), {1.0f, act_bits, true}, 2, 4, 6, 6, 3,
                              1, 1, out.data(), image);
      for (const float v : out) {
        EXPECT_EQ(0.0f, v) << simd::kernel_label(packed.kernel);
        EXPECT_FALSE(std::signbit(v));  // hard +0.0f, byte-identical to std::fill(0.0f)
      }
    }
  }
}

TEST(BackendIdentity, SimdPrunedRowsAreHardZero) {
  util::Rng rng(707);
  const IntegerLayer layer = random_integer_layer(9, 18, {0}, rng);
  const std::vector<float> acts = random_float_codes(3 * 18, 4, rng);
  for (const SimdTier tier : reachable_simd_tiers()) {
    const simd::PackedSimd packed = simd::pack_simd(layer, tier, 4, simd::OpShape::linear());
    std::vector<float> out(3 * 9, -1.0f);
    std::vector<std::uint32_t> image;
    simd::linear_forward_into(packed, acts.data(), {1.0f, 4, true}, 3, 18, out.data(),
                              image);
    for (const float v : out) {
      EXPECT_EQ(0.0f, v);
      EXPECT_FALSE(std::signbit(v));  // hard +0.0f, matching the scalar kernels
    }
  }
}

/// A pack without panels holds nothing and every kernel refuses it.
void expect_unpacked(const simd::PackedSimd& packed) {
  EXPECT_EQ(simd::Kernel::kScalar, packed.kernel);
  EXPECT_EQ(0u, packed.bytes());
  const std::vector<float> acts(static_cast<std::size_t>(packed.weights_per_filter), 1.0f);
  std::vector<float> out(static_cast<std::size_t>(packed.num_filters));
  std::vector<std::uint32_t> image;
  EXPECT_THROW(simd::linear_forward_into(packed, acts.data(), {1.0f, 4, true}, 1,
                                         static_cast<int>(packed.weights_per_filter),
                                         out.data(), image),
               std::logic_error);
}

TEST(BackendIdentity, SimdHighBitLayersAreNotPackable) {
  util::Rng rng(808);
  // Filter 2's centered 16-bit codes would overflow int16.
  const IntegerLayer layer = random_integer_layer(4, 10, {2, 3, 16, 1}, rng);
  for (const SimdTier tier : reachable_simd_tiers()) {
    expect_unpacked(simd::pack_simd(layer, tier, 4, simd::OpShape::linear()));
  }
}

/// The backend-level face of the same cutoff: a plan layer with a
/// 16-bit filter delegates to the scalar reference at every tier while
/// the plan's other integer layers keep their SIMD kernels, and the
/// output stays byte-identical.
TEST(BackendIdentity, HighBitLayersFallBackToScalar) {
  ExecutionPlan compiled = compile_plan(serve::tiny_mlp_artifact());
  // Filter 0 of layer 0 re-stored at 16 bits: same code values.
  IntegerLayer& widened = PlanRewriter(compiled).integer_layers()[0];
  std::vector<std::uint8_t> bits = widened.filter_bits;
  bits[0] = 16;
  widened = integer_layer_from_codes(std::move(bits), widened.weights_per_filter,
                                     widened.range_hi, decode_rows(widened), widened.bias);
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

/// A quantized layer whose weights are all zero has a degenerate clip
/// range (range_hi 0): pack_layer stores no payload for it, and its
/// rows read as code 0 at weight scale 0, so each unpruned filter
/// outputs exactly its bias, as in the fake-quant forward. The model
/// must compile and serve byte-identically on both backends.
TEST(BackendIdentity, AllZeroLayerServesItsBias) {
  nn::MlpConfig config;
  config.in_features = 6;
  config.hidden = {8, 8};
  config.num_classes = 8;
  nn::Mlp mlp(config);
  const Tensor calib = serve::random_batch({6}, 16, 61);
  mlp.calibrate_activations(calib, 16);
  mlp.set_activation_bits(3);
  for (const nn::ScoredLayerRef& ref : mlp.scored_layers()) {
    for (quant::QuantizableLayer* layer : ref.layers) {
      for (int k = 0; k < layer->num_filters(); ++k) {
        for (float& w : layer->mutable_filter_weights(k)) w = 0.0f;
      }
      layer->set_filter_bits(
          std::vector<int>(static_cast<std::size_t>(layer->num_filters()), 3));
    }
  }
  auto& fc1 = dynamic_cast<nn::Linear&>(*mlp.scored_layers()[0].layers[0]);
  for (std::size_t k = 0; k < 8; ++k) fc1.bias().value[k] = 0.125f * static_cast<float>(k);
  const QuantizedArtifact artifact = export_model(mlp);
  ASSERT_EQ(1u, artifact.packed_layers.size());
  EXPECT_EQ(0.0f, artifact.packed_layers[0].range_hi);
  EXPECT_TRUE(artifact.packed_layers[0].codes.empty());

  const Tensor input = serve::random_batch({6}, 5, 62);
  const Tensor expected = instantiate(artifact)->forward(input);
  const auto plan = std::make_shared<const ExecutionPlan>(compile_plan(artifact));
  ASSERT_TRUE(verify_plan(*plan).clean()) << format_diagnostics(verify_plan(*plan));
  ASSERT_EQ(1, std::count_if(plan->ops().begin(), plan->ops().end(), [](const PlanOp& op) {
              return op.kind == OpKind::IntLinear;
            }));
  serve::EngineSession scalar(plan, 1);
  const Tensor out = scalar.run(input);
  ASSERT_EQ(expected.shape(), out.shape());
  for (std::size_t i = 0; i < out.numel(); ++i) EXPECT_EQ(expected[i], out[i]) << i;
  for (const SimdTier tier : reachable_simd_tiers()) {
    ForcedTier forced(tier);
    serve::EngineSession simd(plan, 1, {}, make_backend(BackendKind::Simd));
    const Tensor simd_out = simd.run(input);
    expect_bytes_equal(simd_out.data(), out.data(), out.numel(),
                       std::string("all-zero layer tier=") + simd_tier_name(tier));
  }
}

TEST(BackendIdentity, SimdKernelsRefuseWiderGridOrGeometry) {
  util::Rng rng(909);
  const IntegerLayer layer = random_integer_layer(4, 10, rng);
  // A layer packed for a narrower activation grid refuses wider codes:
  // the kernel choice was only certified for the packed width.
  const simd::PackedSimd narrow =
      simd::pack_simd(layer, SimdTier::kPortable, 2, simd::OpShape::linear());
  ASSERT_NE(simd::Kernel::kScalar, narrow.kernel);
  const std::vector<float> acts = random_float_codes(10, 4, rng);
  std::vector<float> out(4);
  std::vector<std::uint32_t> image;
  EXPECT_THROW(simd::linear_forward_into(narrow, acts.data(), {1.0f, 4, true}, 1, 10,
                                         out.data(), image),
               std::logic_error);
  // A conv pack's taps must match the call's kernel size.
  const IntegerLayer conv = random_integer_layer(4, 2 * 3 * 3, rng);
  EXPECT_THROW(simd::pack_simd(conv, SimdTier::kPortable, 2, simd::OpShape::conv(2)),
               std::invalid_argument);
  const simd::PackedSimd taps =
      simd::pack_simd(conv, SimdTier::kPortable, 2, simd::OpShape::conv(3));
  const std::vector<float> pixels = random_float_codes(2 * 5 * 5, 2, rng);
  std::vector<float> conv_out(4 * 5 * 5);
  EXPECT_THROW(simd::conv_forward_into(taps, pixels.data(), {1.0f, 2, true}, 1, 18, 5, 5,
                                       1, 1, 0, conv_out.data(), image),
               std::invalid_argument);
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
    int saw_float = 0;
    for (const PlanOp& op : plan.ops()) {
      const std::string label = backend->dispatch(op);
      if (op.kind == OpKind::IntConv || op.kind == OpKind::IntLinear) {
        saw_integer = true;
        // Every layer that misses the dot bound misses maddubs too; amx
        // takes the convs vnni runs on vpdpbusd, never a linear layer.
        const std::string dot = tier == SimdTier::kAmx && op.kind == OpKind::IntConv
                                    ? "simd/amx"
                                    : "simd/vnni";
        if (tier == SimdTier::kPortable) {
          EXPECT_EQ("simd/portable", label);
        } else if (tier == SimdTier::kAvx2) {
          EXPECT_TRUE(label == "simd/avx2" || label == "simd/avx2-i8") << label;
        } else {
          EXPECT_TRUE(label == "simd/avx2" || label == dot) << label;
        }
      } else if (tier != SimdTier::kPortable &&
                 (op.kind == OpKind::EncodeAct || op.kind == OpKind::MaxPool ||
                  (op.kind == OpKind::FloatConv && op.stride == 1))) {
        // quantize_span's AVX2 pass, maxps, and the stride-1 float conv loop.
        EXPECT_EQ("simd/avx2", label) << op.label;
        saw_float += op.kind != OpKind::EncodeAct ? 1 : 0;
      } else {
        EXPECT_EQ("scalar", label) << op.label;
      }
    }
    EXPECT_TRUE(saw_integer);
    // The tiny VGG's stem conv and its max-pools.
    if (tier != SimdTier::kPortable) {
      EXPECT_GE(saw_float, 2);
    }
  }
}

TEST(CpuFeatures, EnvAndForceResolveTiers) {
  const char* prev = std::getenv("CQ_SIMD");
  const std::string saved = prev != nullptr ? prev : "";
  const bool had = prev != nullptr;

  // Each named tier resolves to min(request, what CPUID supports).
  const SimdTier supported = max_supported_simd_tier();
  const auto clamped = [&](SimdTier tier) { return std::min(tier, supported); };
  for (const SimdTier tier :
       {SimdTier::kPortable, SimdTier::kAvx2, SimdTier::kVnni, SimdTier::kAmx}) {
    ::setenv("CQ_SIMD", simd_tier_name(tier), 1);
    EXPECT_EQ(clamped(tier), resolve_simd_tier()) << simd_tier_name(tier);
  }
  // "auto" and typos resolve to the fastest tier the CPU supports — a
  // misspelled override degrades, never crashes. "off" is one more
  // unrecognized value: no explicit SIMD is --backend=scalar.
  for (const char* value : {"auto", "definitely-a-typo", "off"}) {
    ::setenv("CQ_SIMD", value, 1);
    EXPECT_EQ(supported, resolve_simd_tier()) << value;
  }
  // The forced override outranks the environment, and is clamped the
  // same way: a forced vnni on a CPU without AVX-VNNI runs a lower tier.
  ::setenv("CQ_SIMD", "portable", 1);
  for (const SimdTier tier :
       {SimdTier::kPortable, SimdTier::kAvx2, SimdTier::kVnni, SimdTier::kAmx}) {
    force_simd_tier(tier);
    EXPECT_EQ(clamped(tier), resolve_simd_tier()) << simd_tier_name(tier);
  }
  clear_forced_simd_tier();

  if (had) {
    ::setenv("CQ_SIMD", saved.c_str(), 1);
  } else {
    ::unsetenv("CQ_SIMD");
  }
  // The supported ceiling is exactly what CPUID (and, for amx, the tile
  // permission) reported.
  const CpuFeatures& f = cpu_features();
  EXPECT_EQ(!f.avx2      ? SimdTier::kPortable
            : !f.avxvnni ? SimdTier::kAvx2
            : f.amx      ? SimdTier::kAmx
                         : SimdTier::kVnni,
            max_supported_simd_tier());
}

TEST(CpuFeatures, JsonNamesArchAndTier) {
  const std::string json = cpu_features_json();
  EXPECT_NE(json.find("\"arch\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"avx2\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"avxvnni\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"amx\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tier\""), std::string::npos) << json;
  EXPECT_NE(json.find(simd_tier_name(resolve_simd_tier())), std::string::npos)
      << json;
}

/// prepared_bytes() is exactly one panel set per integer op, by the
/// layout arithmetic: whole 8-filter tiles x taps x channel groups of
/// 32-bit words (4 codes per word for avx2-i8 and vnni ops, 2
/// otherwise), or for amx ops whole 16-filter blocks x kernel rows x
/// K-chunks x chunk bytes x 16 filters, plus a float scale and bias per
/// filter.
TEST(BackendFactory, SimdPreparedBytesAreOneLayoutPerOp) {
  const ExecutionPlan plan = compile_plan(serve::tiny_vgg_artifact());
  for (const SimdTier tier : reachable_simd_tiers()) {
    ForcedTier forced(tier);
    const auto backend = make_backend(BackendKind::Simd);
    backend->prepare(plan);
    std::size_t expected = 0;
    for (const PlanOp& op : plan.ops()) {
      if (op.kind == OpKind::FloatConv && backend->dispatch(op) == std::string("simd/avx2")) {
        // 8-filter float panels: one float per filter lane and im2col row.
        expected += (static_cast<std::size_t>(op.out_c) + 7) / 8 * 8 *
                    static_cast<std::size_t>(op.in_c * op.kernel * op.kernel) * sizeof(float);
      }
      if (op.kind != OpKind::IntConv && op.kind != OpKind::IntLinear) continue;
      const IntegerLayer& layer =
          plan.integer_layers()[static_cast<std::size_t>(op.layer)];
      const auto filters = static_cast<std::size_t>(layer.num_filters);
      const bool conv = op.kind == OpKind::IntConv;
      const auto taps = static_cast<std::size_t>(conv ? op.kernel * op.kernel : 1);
      const auto channels = static_cast<std::size_t>(conv ? op.in_c : op.in_features);
      const std::string label = backend->dispatch(op);
      if (label == "simd/amx") {
        const AmxRun run(channels, static_cast<std::size_t>(op.kernel));
        expected +=
            (filters + 15) / 16 * static_cast<std::size_t>(op.kernel) * run.chunks * run.chunk * 16;
      } else {
        const std::size_t g = label == "simd/avx2-i8" || label == "simd/vnni" ? 4 : 2;
        const std::size_t lanes = (filters + 7) / 8 * 8;
        expected += lanes * taps * ((channels + g - 1) / g) * sizeof(std::uint32_t);
      }
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
