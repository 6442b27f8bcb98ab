// Micro-benchmarks (google-benchmark) of the numerical kernels that
// dominate the experiment runtimes: GEMM, im2col, the uniform
// quantizer, and whole-layer forward/backward.

#include <benchmark/benchmark.h>

#include <memory>

#include "nn/conv2d.h"
#include "deploy/backend.h"
#include "deploy/int_engine.h"
#include "deploy/packing.h"
#include "nn/linear.h"
#include "quant/uniform.h"
#include "tensor/ops.h"
#include "util/exec_context.h"
#include "util/thread_pool.h"

namespace {

using namespace cq;

void BM_Gemm(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(1);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(32)->Arg(64)->Arg(128);

void BM_GemmABt(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  util::Rng rng(2);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm_a_bt(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmABt)->Arg(64);

void BM_Im2col(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  util::Rng rng(3);
  tensor::ConvGeometry g;
  g.in_c = 16;
  g.in_h = size;
  g.in_w = size;
  const tensor::Tensor input = tensor::Tensor::randn({g.in_c, size, size}, rng);
  std::vector<float> cols(static_cast<std::size_t>(g.patch_size()) * g.out_h() * g.out_w());
  for (auto _ : state) {
    tensor::im2col(input.data(), g, cols.data());
    benchmark::DoNotOptimize(cols.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long long>(cols.size()));
}
BENCHMARK(BM_Im2col)->Arg(16)->Arg(32);

void BM_QuantizeSpan(benchmark::State& state) {
  const int bits = static_cast<int>(state.range(0));
  util::Rng rng(4);
  const tensor::Tensor src = tensor::Tensor::randn({1 << 16}, rng);
  tensor::Tensor dst({1 << 16});
  const quant::UniformRange r{-1.0f, 1.0f};
  for (auto _ : state) {
    quant::quantize_span(src.span(), dst.span(), r, bits);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetItemsProcessed(state.iterations() * (1LL << 16));
}
BENCHMARK(BM_QuantizeSpan)->Arg(1)->Arg(4)->Arg(8);

void BM_Conv2dForward(benchmark::State& state) {
  const bool quantized = state.range(0) != 0;
  util::Rng rng(6);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  if (quantized) conv.set_filter_bits(std::vector<int>(32, 2));
  const tensor::Tensor x = tensor::Tensor::randn({4, 16, 16, 16}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x).data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(0)->Arg(1);

void BM_Conv2dBackward(benchmark::State& state) {
  util::Rng rng(7);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  const tensor::Tensor x = tensor::Tensor::randn({4, 16, 16, 16}, rng);
  const tensor::Tensor y = conv.forward(x);
  const tensor::Tensor g = tensor::Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.backward(g).data());
  }
}
BENCHMARK(BM_Conv2dBackward);

void BM_IntegerLinearForward(benchmark::State& state) {
  // The deployment engine's integer MAC path (per-filter bit-widths)
  // against the float fake-quant forward of BM_LinearForward.
  const int bits = static_cast<int>(state.range(0));
  util::Rng rng(9);
  nn::Linear fc(512, 256, rng);
  fc.set_filter_bits(std::vector<int>(256, bits));
  const deploy::PackedLayer packed = deploy::pack_layer(fc, "fc");
  const deploy::IntegerLayer integer{packed, std::vector<float>(256, 0.0f)};
  const tensor::Tensor x = tensor::Tensor::rand_uniform({32, 512}, rng, 0.0f, 1.0f);
  const deploy::ActCodes codes = deploy::encode_activations(x, 1.0f, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        deploy::integer_linear_forward(integer, codes, 32, 512).data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 32 * 512 * 256);
}
BENCHMARK(BM_IntegerLinearForward)->Arg(2)->Arg(4)->Arg(8);

void BM_LinearForward(benchmark::State& state) {
  util::Rng rng(8);
  nn::Linear fc(512, 256, rng);
  const tensor::Tensor x = tensor::Tensor::randn({32, 512}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fc.forward(x).data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 32 * 512 * 256);
}
BENCHMARK(BM_LinearForward);

// --- Threaded kernel variants (intra-op ExecContext) -----------------
// Arg(0) is the thread count (caller included); 1 = serial path. The
// pool lives outside the timing loop, so these measure steady-state
// chunking cost, not thread spawn. On a single-core host the >1-thread
// rows measure pure overhead; real scaling numbers come from the CI
// perf-smoke lane (bench/kernel_scaling).

/// Pool sized for `threads` participants (caller + helpers).
std::unique_ptr<util::ThreadPool> pool_for(int threads) {
  return threads > 1 ? std::make_unique<util::ThreadPool>(threads - 1) : nullptr;
}

void BM_GemmThreaded(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const int n = 256;
  const auto pool = pool_for(threads);
  const util::ExecContext exec{pool.get(), threads};
  util::Rng rng(10);
  const tensor::Tensor a = tensor::Tensor::randn({n, n}, rng);
  const tensor::Tensor b = tensor::Tensor::randn({n, n}, rng);
  tensor::Tensor c({n, n});
  for (auto _ : state) {
    tensor::gemm(a.data(), b.data(), c.data(), n, n, n, /*accumulate=*/false, exec);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_GemmThreaded)->Arg(1)->Arg(2)->Arg(4);

void BM_IntegerConvForwardThreaded(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto pool = pool_for(threads);
  const util::ExecContext exec{pool.get(), threads};
  util::Rng rng(11);
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  conv.set_filter_bits(std::vector<int>(32, 3));
  const deploy::PackedLayer packed = deploy::pack_layer(conv, "conv");
  const deploy::IntegerLayer integer{packed, std::vector<float>(32, 0.0f)};
  const tensor::Tensor x = tensor::Tensor::rand_uniform({4, 16, 16, 16}, rng, 0.0f, 1.0f);
  const deploy::ActCodes codes = deploy::encode_activations(x, 1.0f, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        deploy::integer_conv_forward(integer, codes, 4, 16, 16, 16, 3, 1, 1, exec)
            .data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 4 * 32 * (16 * 9) * 16 * 16);
}
BENCHMARK(BM_IntegerConvForwardThreaded)->Arg(1)->Arg(2)->Arg(4);

void BM_IntegerLinearForwardThreaded(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto pool = pool_for(threads);
  const util::ExecContext exec{pool.get(), threads};
  util::Rng rng(12);
  nn::Linear fc(512, 256, rng);
  fc.set_filter_bits(std::vector<int>(256, 4));
  const deploy::PackedLayer packed = deploy::pack_layer(fc, "fc");
  const deploy::IntegerLayer integer{packed, std::vector<float>(256, 0.0f)};
  const tensor::Tensor x = tensor::Tensor::rand_uniform({32, 512}, rng, 0.0f, 1.0f);
  const deploy::ActCodes codes = deploy::encode_activations(x, 1.0f, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        deploy::integer_linear_forward(integer, codes, 32, 512, exec).data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 32 * 512 * 256);
}
BENCHMARK(BM_IntegerLinearForwardThreaded)->Arg(1)->Arg(2)->Arg(4);

// --- SIMD backend variants -------------------------------------------
// The deploy::simd explicit kernels (same layers and activations as the
// scalar rows above) at the tier this machine resolves — avx2 where
// CPUID allows, portable elsewhere. They read the float activations and
// encode them inside the timed op, as serving does; the scalar rows
// encode once, outside the loop.

void BM_SimdConvForwardThreaded(benchmark::State& state) {
  const deploy::SimdTier tier = deploy::resolve_simd_tier();
  const int threads = static_cast<int>(state.range(0));
  const auto pool = pool_for(threads);
  const util::ExecContext exec{pool.get(), threads};
  util::Rng rng(11);  // same seed/shape as BM_IntegerConvForwardThreaded
  nn::Conv2d conv(16, 32, 3, 1, 1, rng);
  conv.set_filter_bits(std::vector<int>(32, 3));
  const deploy::PackedLayer packed = deploy::pack_layer(conv, "conv");
  const deploy::IntegerLayer integer{packed, std::vector<float>(32, 0.0f)};
  const deploy::simd::PackedSimd panels = deploy::simd::pack_simd(integer, tier, 3, 3);
  const tensor::Tensor x = tensor::Tensor::rand_uniform({4, 16, 16, 16}, rng, 0.0f, 1.0f);
  std::vector<float> out(static_cast<std::size_t>(4) * 32 * 16 * 16);
  std::vector<std::uint32_t> image;
  for (auto _ : state) {
    deploy::simd::conv_forward_into(panels, x.data(), {1.0f, 3, false}, 4, 16, 16, 16, 3,
                                    1, 1, out.data(), image, exec);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 4 * 32 * (16 * 9) * 16 * 16);
}
BENCHMARK(BM_SimdConvForwardThreaded)->Arg(1)->Arg(2)->Arg(4);

void BM_SimdLinearForwardThreaded(benchmark::State& state) {
  const deploy::SimdTier tier = deploy::resolve_simd_tier();
  const int threads = static_cast<int>(state.range(0));
  const auto pool = pool_for(threads);
  const util::ExecContext exec{pool.get(), threads};
  util::Rng rng(12);  // same seed/shape as BM_IntegerLinearForwardThreaded
  nn::Linear fc(512, 256, rng);
  fc.set_filter_bits(std::vector<int>(256, 4));
  const deploy::PackedLayer packed = deploy::pack_layer(fc, "fc");
  const deploy::IntegerLayer integer{packed, std::vector<float>(256, 0.0f)};
  const deploy::simd::PackedSimd panels = deploy::simd::pack_simd(integer, tier, 4);
  const tensor::Tensor x = tensor::Tensor::rand_uniform({32, 512}, rng, 0.0f, 1.0f);
  std::vector<float> out(static_cast<std::size_t>(32) * 256);
  std::vector<std::uint32_t> image;
  for (auto _ : state) {
    deploy::simd::linear_forward_into(panels, x.data(), {1.0f, 4, false}, 32, 512,
                                      out.data(), image, exec);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 2LL * 32 * 512 * 256);
}
BENCHMARK(BM_SimdLinearForwardThreaded)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

BENCHMARK_MAIN();
