// Intra-op kernel scaling harness: times the threaded integer/float
// kernels at a list of thread counts — for each backend in
// --backends — verifies every timed run is byte-identical to the
// scalar serial reference, and emits machine-readable JSON for the CI
// perf lane.
//
// The perf-smoke CI job runs this binary on a multi-core runner and
// asserts the speedups it observes, e.g.
//
//   kernel_scaling --json=kernel_scaling.json --assert-case=integer_conv_large
//                  --assert-threads=4 --assert-speedup=1.5
//   kernel_scaling --backends=scalar,simd --assert-case=integer_conv_large
//                  --assert-threads=1 --assert-backend-speedup=2.0
//   kernel_scaling --backends=scalar,simd --assert-case=integer_conv_paper
//                  --assert-threads=1 --assert-backend-speedup=6.0
//
// --assert-speedup gates thread scaling of the named scalar case;
// --assert-backend-speedup gates the simd backend's win over the
// scalar kernels on the same case at --assert-threads (requires both
// backends in the sweep). One threshold serves every SIMD tier: a simd
// case that silently fell back to scalar-speed code reads about 1x.
// Each integer case times the whole op from float activations — the
// scalar reference's encode or cast, im2col and int64 MACs against the
// simd backend's code-image build and MACs; integer_conv_paper feeds
// raw activations, the others grid codes. integer_conv_block also runs a
// fused epilogue: apply_epilogue after the scalar kernel, the simd
// kernel's own store on the simd side.
// Exit codes: 0 ok, 1 assertion failed, 2 output mismatch vs the
// scalar reference.
//
// Other knobs: --threads=1,2,4 (thread counts), --repeat=N (timed runs
// per point; best-of is reported to shed scheduler noise),
// --backends=scalar,simd (kernel backends to sweep; simd cases are
// named <case>@simd and always verified byte-identical against scalar
// before timing). The JSON carries a "cpu" object (CPUID features +
// the resolved SIMD tier) so perf artifacts say what machine produced
// them.

#include <climits>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "deploy/backend.h"
#include "deploy/bitstream.h"
#include "deploy/int_engine.h"
#include "tensor/ops.h"
#include "util/cli.h"
#include "util/exec_context.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace cq;

/// One kernel run under the given context, writing `out_size` floats
/// to `out`; the caller allocates `out` once, outside every timed run.
using KernelRun = std::function<void(const util::ExecContext&, float* out)>;

/// Runs `run` serially into a fresh buffer and returns its bytes.
std::vector<float> serial_output(const KernelRun& run, std::size_t out_size) {
  std::vector<float> out(out_size);
  run({}, out.data());
  return out;
}

/// One timed kernel under test: run() executes the kernel and writes
/// the output bytes for the byte-identity check. `ref` (when set)
/// produces the reference those bytes must equal — simd cases point it
/// at the scalar kernel, so every simd measurement doubles as a
/// cross-backend identity check; scalar cases default to their own
/// serial run.
struct Case {
  std::string name;
  std::string desc;
  std::string backend = "scalar";
  long long work_macs = 0;  ///< multiply-accumulates per run, as deploy::op_macs counts
  std::size_t out_size = 0;
  KernelRun run;
  std::function<std::vector<float>()> ref;
};

/// Synthetic IntegerLayer with a mixed bit pattern (pruned filters
/// included) and random codes — the shape CQ deployments have — written
/// through BitWriter in pack_layer's layout.
deploy::IntegerLayer fabricate_integer_layer(int num_filters, std::int64_t per_filter,
                                             util::Rng& rng) {
  deploy::IntegerLayer layer;
  layer.num_filters = num_filters;
  layer.weights_per_filter = per_filter;
  layer.range_hi = 0.9f;
  const int pattern[8] = {2, 3, 2, 1, 4, 2, 0, 2};
  layer.filter_bits.resize(static_cast<std::size_t>(num_filters));
  layer.bias.resize(static_cast<std::size_t>(num_filters));
  deploy::BitWriter writer;
  for (int k = 0; k < num_filters; ++k) {
    const int b = pattern[k % 8];
    layer.filter_bits[static_cast<std::size_t>(k)] = static_cast<std::uint8_t>(b);
    layer.bias[static_cast<std::size_t>(k)] =
        static_cast<float>(rng.uniform(-0.5, 0.5));
    if (b == 0) continue;
    const int levels = 1 << b;
    for (std::int64_t j = 0; j < per_filter; ++j) {
      writer.append(static_cast<std::uint32_t>(rng.uniform_int(0, levels - 1)), b);
    }
  }
  writer.align_to_byte();
  layer.codes = std::move(writer).take();
  return layer;
}

/// Float activations an integer case reads, and the grid they are
/// adopted onto: codes stored as floats (in_codes, as an ep_encode
/// producer leaves them) or raw activations the kernels must encode.
struct IntegerInput {
  std::vector<float> acts;
  deploy::simd::ActGrid grid;
};

/// `count` random codes on the [0, 1] x bits grid, stored as floats.
IntegerInput fabricate_codes(std::size_t count, int bits, util::Rng& rng) {
  IntegerInput in{std::vector<float>(count), {1.0f, bits, /*in_codes=*/true}};
  const int levels = 1 << bits;
  for (float& a : in.acts) a = static_cast<float>(rng.uniform_int(0, levels - 1));
  return in;
}

/// `count` raw post-ReLU activations for the [0, 1] x bits grid, a
/// fifth of them above the clip.
IntegerInput fabricate_raw(std::size_t count, int bits, util::Rng& rng) {
  IntegerInput in{std::vector<float>(count), {1.0f, bits, /*in_codes=*/false}};
  for (float& a : in.acts) a = static_cast<float>(rng.uniform(0.0, 1.25));
  return in;
}

/// A conv case's fused epilogue: the op carrying its stages, BN vectors
/// and output grid, and the residual its add reads.
struct FusedTail {
  deploy::PlanOp op;
  std::vector<float> residual;

  deploy::BackendIo io(float* out) const {
    return {nullptr, op.ep_add ? residual.data() : nullptr, out, 1};
  }
};

/// ResNet20's residual-block tail on `channels` planes of hw x hw:
/// +bn+add+relu->codes onto an A2 grid, random BN constants and a
/// post-ReLU residual, a fifth of it past the grid's clip.
std::shared_ptr<const FusedTail> fabricate_block_tail(int channels, int hw, util::Rng& rng) {
  auto tail = std::make_shared<FusedTail>();
  deploy::PlanOp& op = tail->op;
  op.out_c = channels;
  op.out_h = op.out_w = hw;
  op.ep_bn = op.ep_add = op.ep_relu = op.ep_encode = true;
  for (auto* v : {&op.bn_mean, &op.bn_inv_std, &op.bn_gamma, &op.bn_beta}) {
    for (int c = 0; c < channels; ++c) v->push_back(static_cast<float>(rng.uniform(0.2, 1.2)));
  }
  op.out_hi = 2.0f;
  op.out_bits = 2;
  tail->residual.resize(static_cast<std::size_t>(channels) * hw * hw);
  for (float& r : tail->residual) r = static_cast<float>(rng.uniform(0.0, 2.5));
  return tail;
}

/// The scalar reference's input adoption — ScalarBackend's cast or
/// encode into int32 codes — reusing `codes` across runs.
void adopt(const IntegerInput& in, deploy::ActCodes& codes, const util::ExecContext& exec) {
  if (in.grid.in_codes) {
    deploy::cast_codes_into(in.acts.data(), in.acts.size(), in.grid.hi, in.grid.bits, codes,
                            exec);
  } else {
    deploy::encode_activations_into(in.acts.data(), in.acts.size(), in.grid.hi,
                                    in.grid.bits, codes, exec);
  }
}

std::vector<std::string> parse_list(const std::string& list) {
  std::vector<std::string> out;
  std::string token;
  for (const char c : list + ",") {
    if (c == ',') {
      if (!token.empty()) out.push_back(token);
      token.clear();
    } else {
      token += c;
    }
  }
  return out;
}

bool contains(const std::vector<std::string>& list, const std::string& value) {
  for (const std::string& v : list) {
    if (v == value) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Cli cli(argc, argv);
  std::vector<int> thread_counts;
  int repeat = 0, assert_threads = 0;
  try {
    for (const std::string& t : parse_list(cli.get("threads", "1,2,4"))) {
      thread_counts.push_back(static_cast<int>(util::parse_int("--threads", t, 1, 256)));
    }
    repeat = static_cast<int>(cli.get_int("repeat", 5, 1, INT_MAX));
    assert_threads = static_cast<int>(cli.get_int("assert-threads", 4, 1, 256));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "kernel_scaling: %s\n", e.what());
    return 2;
  }
  const std::vector<std::string> backends =
      parse_list(cli.get("backends", "scalar,simd"));
  for (const std::string& b : backends) {
    deploy::parse_backend_kind(b);  // fail fast on typos, naming the options
  }
  const std::string json_path = cli.get("json", "");
  const std::string assert_case = cli.get("assert-case", "");
  const double assert_speedup = cli.get_double("assert-speedup", 0.0);
  const double assert_backend_speedup = cli.get_double("assert-backend-speedup", 0.0);
  const bool want_scalar = contains(backends, "scalar");
  const bool want_simd = contains(backends, "simd");
  // The simd cases run at the tier this machine resolves (CPUID + CQ_SIMD).
  const deploy::SimdTier simd_tier = deploy::resolve_simd_tier();

  util::Rng rng(42);
  std::vector<Case> cases;

  /// Registers a scalar case plus (per --backends) its simd twin running
  /// the same op (for integer cases, the packed kernel over the same
  /// layer and codes); the twin is byte-verified against the scalar
  /// serial run before any timing.
  const auto add_case_pair = [&](const std::string& name, const std::string& desc,
                                 long long macs, std::size_t out_size, KernelRun scalar_run,
                                 KernelRun simd_run) {
    if (want_scalar) cases.push_back({name, desc, "scalar", macs, out_size, scalar_run, {}});
    if (want_simd) {
      cases.push_back({name + "@simd",
                       desc + " (simd backend, " +
                           std::string(deploy::simd_tier_name(simd_tier)) + " tier)",
                       "simd", macs, out_size, simd_run,
                       [scalar_run, out_size] { return serial_output(scalar_run, out_size); }});
    }
  };

  /// Registers a conv case: the scalar run is ScalarBackend's op
  /// (adopt into int32 codes, im2col, int64 MACs, then apply_epilogue
  /// when the case has a `tail`), the simd run simd::conv_forward_into
  /// straight from the floats, finishing the tail in its store.
  const auto add_conv_case = [&](const std::string& name, const std::string& desc,
                                 int in_c, int hw, int filters, int kernel, int stride,
                                 int pad, IntegerInput input,
                                 std::shared_ptr<const FusedTail> tail = nullptr) {
    const std::int64_t per_filter = static_cast<std::int64_t>(in_c) * kernel * kernel;
    auto layer = std::make_shared<deploy::IntegerLayer>(
        fabricate_integer_layer(filters, per_filter, rng));
    auto in = std::make_shared<const IntegerInput>(std::move(input));
    auto spacked = std::make_shared<deploy::simd::PackedSimd>(
        deploy::simd::pack_simd(*layer, simd_tier, in->grid.bits,
                                deploy::simd::OpShape::conv(kernel)));
    auto codes = std::make_shared<deploy::ActCodes>();
    auto cols = std::make_shared<std::vector<std::int32_t>>();
    auto image = std::make_shared<std::vector<std::uint32_t>>();
    const int out_hw = (hw + 2 * pad - kernel) / stride + 1;
    const std::size_t out_size = static_cast<std::size_t>(filters) * out_hw * out_hw;
    add_case_pair(
        name, desc, 1LL * filters * per_filter * out_hw * out_hw, out_size,
        [=](const util::ExecContext& exec, float* out) {
          adopt(*in, *codes, exec);
          deploy::integer_conv_forward_into(*layer, *codes, 1, in_c, hw, hw, kernel, stride,
                                            pad, out, *cols, exec);
          if (tail) deploy::apply_epilogue(tail->op, tail->io(out), out_size, exec);
        },
        [=](const util::ExecContext& exec, float* out) {
          deploy::simd::conv_forward_into(
              *spacked, in->acts.data(), in->grid, 1, in_c, hw, hw, kernel, stride, pad, out,
              *image, exec, tail ? deploy::Epilogue(tail->op, tail->io(out)) : deploy::Epilogue());
        });
  };

  // The "large-layer case" of the perf-smoke assertions: one image
  // through a VGG-middle-sized conv, ~75M MACs, fed grid codes.
  add_conv_case("integer_conv_large", "integer conv 64x32x32 -> 128 filters, 3x3", 64, 32,
                128, 3, 1, 1, fabricate_codes(64 * 32 * 32, 3, rng));

  // Small conv: shows where threading/tiling overhead eats the win.
  add_conv_case("integer_conv_small", "integer conv 8x16x16 -> 16 filters, 3x3", 8, 16, 16,
                3, 1, 1, fabricate_codes(8 * 16 * 16, 3, rng));

  // The paper-shaped case: ResNet20's stage-1 conv at CIFAR-10 size,
  // fed raw 2-bit activations, so both backends pay their encode.
  add_conv_case("integer_conv_paper",
                "integer conv 16x32x32 -> 16 filters, 3x3, raw A2 activations", 16, 32,
                16, 3, 1, 1, fabricate_raw(16 * 32 * 32, 2, rng));

  // ResNet20's first downsampling conv (stage 2, block 1, conv1): the
  // strided shape, fed raw 2-bit activations.
  add_conv_case("integer_conv_strided",
                "integer conv 16x32x32 -> 32 filters, 3x3, stride 2, raw A2 activations", 16,
                32, 32, 3, 2, 1, fabricate_raw(16 * 32 * 32, 2, rng));

  /// Registers a linear case: the scalar run is ScalarBackend's op, the
  /// simd run simd::linear_forward_into straight from the floats.
  const auto add_linear_case = [&](const std::string& name, const std::string& desc,
                                   int batch, int in_features, int filters,
                                   IntegerInput input) {
    auto layer = std::make_shared<deploy::IntegerLayer>(
        fabricate_integer_layer(filters, in_features, rng));
    auto in = std::make_shared<const IntegerInput>(std::move(input));
    auto spacked = std::make_shared<deploy::simd::PackedSimd>(
        deploy::simd::pack_simd(*layer, simd_tier, in->grid.bits,
                                deploy::simd::OpShape::linear()));
    auto codes = std::make_shared<deploy::ActCodes>();
    auto image = std::make_shared<std::vector<std::uint32_t>>();
    const std::size_t out_size = static_cast<std::size_t>(batch) * filters;
    add_case_pair(
        name, desc, 1LL * batch * in_features * filters, out_size,
        [=](const util::ExecContext& exec, float* out) {
          adopt(*in, *codes, exec);
          deploy::integer_linear_forward_into(*layer, *codes, batch, in_features, out, exec);
        },
        [=](const util::ExecContext& exec, float* out) {
          deploy::simd::linear_forward_into(*spacked, in->acts.data(), in->grid, batch,
                                            in_features, out, *image, exec);
        });
  };

  // Integer FC layer, chunked over output rows / filter tiles.
  add_linear_case("integer_linear_large", "integer linear 16x1024 -> 1024", 16, 1024, 1024,
                  fabricate_codes(16 * 1024, 4, rng));

  // VGG-small's first FC layer (fc5) at batch 1, fed A2 grid codes.
  add_linear_case("integer_linear_paper", "integer linear 1x2048 -> 128, A2 codes", 1, 2048,
                  128, fabricate_codes(2048, 2, rng));

  // ResNet20's s1b3.conv2 as served: A2 codes in, its block's tail fused.
  add_conv_case("integer_conv_block",
                "integer conv 16x32x32 -> 16 filters, 3x3, A2 codes, +bn+add+relu->codes", 16, 32,
                16, 3, 1, 1, fabricate_codes(16 * 32 * 32, 2, rng),
                fabricate_block_tail(16, 32, rng));

  /// Registers a float op case: `op` in a one-op plan (slot 0 its
  /// input, slot 1 its output), run through ScalarBackend::run and, for
  /// the simd twin, SimdBackend::run, each prepared once.
  const auto add_op_case = [&](const std::string& name, const std::string& desc,
                               deploy::PlanOp op, std::vector<float> input,
                               std::size_t out_size) {
    auto plan = std::make_shared<deploy::ExecutionPlan>();
    deploy::PlanRewriter rewriter(*plan);
    rewriter.slots().resize(2);
    rewriter.slots()[0].numel = input.size();
    rewriter.slots()[1].numel = out_size;
    op.in0 = 0;
    op.out = 1;
    rewriter.ops().push_back(std::move(op));
    auto in = std::make_shared<const std::vector<float>>(std::move(input));
    const auto backend_run = [plan, in](deploy::BackendKind kind) {
      std::shared_ptr<deploy::Backend> backend = deploy::make_backend(kind);
      backend->prepare(*plan);
      auto scratch = std::make_shared<deploy::BackendScratch>();
      return KernelRun([plan, in, backend, scratch](const util::ExecContext& exec, float* out) {
        backend->run(plan->ops().front(), *plan, {in->data(), nullptr, out, 1}, *scratch, exec);
      });
    };
    add_case_pair(name, desc, static_cast<long long>(deploy::op_macs(plan->ops().front())),
                     out_size, backend_run(deploy::BackendKind::Scalar),
                     backend_run(deploy::BackendKind::Simd));
  };

  // ResNet20's stem as served: the raw 3x32x32 image through a 3x3 float
  // conv to 16 filters, +bn+relu fused (im2col + gemm + bias + the
  // epilogue pass on scalar, the padded-image loop with the epilogue in
  // its store on simd).
  {
    deploy::PlanOp op;
    op.kind = deploy::OpKind::FloatConv;
    op.in_c = 3;
    op.in_h = op.in_w = op.out_h = op.out_w = 32;
    op.out_c = 16;
    op.kernel = 3;
    op.stride = 1;
    op.pad = 1;
    op.weight = tensor::Tensor::rand_uniform({16, 27}, rng, -0.5f, 0.5f);
    for (int k = 0; k < 16; ++k) op.bias.push_back(static_cast<float>(rng.uniform(-0.1, 0.1)));
    op.ep_bn = op.ep_relu = true;
    for (auto* v : {&op.bn_mean, &op.bn_inv_std, &op.bn_gamma, &op.bn_beta}) {
      for (int c = 0; c < 16; ++c) v->push_back(static_cast<float>(rng.uniform(0.2, 1.2)));
    }
    std::vector<float> image(3 * 32 * 32);
    for (float& x : image) x = static_cast<float>(rng.uniform(-2.0, 2.0));
    add_op_case("float_conv_stem",
                "float conv 3x32x32 -> 16 filters, 3x3, pad 1, raw image, +bn+relu", op,
                std::move(image), 16 * 32 * 32);
  }

  // VGG-small's first max-pool: 32 planes of 32x32, 2x2 windows, stride 2.
  {
    deploy::PlanOp op;
    op.kind = deploy::OpKind::MaxPool;
    op.in_c = op.out_c = 32;
    op.in_h = op.in_w = 32;
    op.out_h = op.out_w = 16;
    op.kernel = op.stride = 2;
    std::vector<float> planes(32 * 32 * 32);
    for (float& x : planes) x = static_cast<float>(rng.uniform(0.0, 3.0));
    add_op_case("max_pool_paper", "max-pool 32x32x32, 2x2 stride 2", op, std::move(planes),
                32 * 16 * 16);
  }

  // Float GEMM — the training-side im2col+GEMM path (backends only
  // differ on integer ops, so this is scalar-only).
  if (want_scalar) {
    const int m = 256, k = 256, n = 256;
    util::Rng gemm_rng(7);
    auto a = std::make_shared<tensor::Tensor>(
        tensor::Tensor::randn({m, k}, gemm_rng));
    auto b = std::make_shared<tensor::Tensor>(
        tensor::Tensor::randn({k, n}, gemm_rng));
    cases.push_back({"gemm_float_256", "tensor::gemm 256x256x256", "scalar",
                     1LL * m * k * n, static_cast<std::size_t>(m) * n,
                     [=](const util::ExecContext& exec, float* c) {
                       tensor::gemm(a->data(), b->data(), c, m, k, n,
                                    /*accumulate=*/false, exec);
                     },
                     {}});
  }

  struct Point {
    int threads = 0;
    double best_ms = 0.0;
    double speedup = 1.0;
  };
  struct CaseResult {
    const Case* c = nullptr;
    std::vector<Point> points;
  };
  std::vector<CaseResult> results;

  for (const Case& c : cases) {
    CaseResult result;
    result.c = &c;
    // Identity reference: the case's own serial run, or — for simd
    // cases — the scalar kernel's serial run (the byte-identity
    // contract every backend is held to).
    const std::vector<float> reference = c.ref ? c.ref() : serial_output(c.run, c.out_size);
    // Every run writes this one buffer, so no timed run allocates.
    std::vector<float> out(c.out_size);
    // The speedup baseline is always the strictly serial run, whatever
    // --threads lists — otherwise omitting 1 would silently rebase the
    // asserted speedup on a threaded time. Scalar cases are already
    // warm from the reference run; simd cases warm their own kernel.
    if (c.ref) c.run({}, out.data());
    double base_ms = 0.0;
    for (int r = 0; r < repeat; ++r) {
      util::Timer timer;
      c.run({}, out.data());
      const double ms = timer.millis();
      if (r == 0 || ms < base_ms) base_ms = ms;
    }
    for (const int t : thread_counts) {
      // The caller participates, so a pool of t-1 helpers gives t
      // threads; t=1 is the strictly serial path (no pool at all).
      std::unique_ptr<util::ThreadPool> pool;
      if (t > 1) pool = std::make_unique<util::ThreadPool>(t - 1);
      const util::ExecContext exec{pool.get(), t};

      // Warm + verify, into a poisoned buffer: an output element the
      // kernel fails to write cannot pass on an earlier run's bytes.
      std::memset(out.data(), 0xff, out.size() * sizeof(float));
      c.run(exec, out.data());
      if (std::memcmp(out.data(), reference.data(), reference.size() * sizeof(float)) !=
          0) {
        std::fprintf(stderr,
                     "kernel_scaling: %s at %d threads is NOT byte-identical "
                     "to the scalar serial reference\n",
                     c.name.c_str(), t);
        return 2;
      }

      double best = 0.0;
      for (int r = 0; r < repeat; ++r) {
        util::Timer timer;
        c.run(exec, out.data());
        const double ms = timer.millis();
        if (r == 0 || ms < best) best = ms;
      }
      result.points.push_back({t, best, base_ms > 0.0 ? base_ms / best : 1.0});
    }
    results.push_back(std::move(result));
  }

  // Human-readable report.
  for (const CaseResult& r : results) {
    util::Table table({"threads", "best ms", "speedup", "GMAC/s"});
    for (const Point& p : r.points) {
      table.add_row({std::to_string(p.threads), util::Table::num(p.best_ms, 3),
                     util::Table::num(p.speedup, 2),
                     util::Table::num(static_cast<double>(r.c->work_macs) /
                                          (p.best_ms * 1e6),
                                      2)});
    }
    std::printf("%s — %s\n%s\n", r.c->name.c_str(), r.c->desc.c_str(),
                table.render().c_str());
  }
  std::printf("hardware threads: %u, repeat: %d (best-of)\n",
              std::thread::hardware_concurrency(), repeat);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "kernel_scaling: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"hardware_threads\": %u,\n  \"repeat\": %d,\n"
                 "  \"cpu\": %s,\n  \"cases\": [\n",
                 std::thread::hardware_concurrency(), repeat,
                 deploy::cpu_features_json().c_str());
    for (std::size_t i = 0; i < results.size(); ++i) {
      const CaseResult& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"desc\": \"%s\", \"backend\": \"%s\", "
                   "\"work_macs\": %lld,\n"
                   "     \"results\": [",
                   r.c->name.c_str(), r.c->desc.c_str(), r.c->backend.c_str(),
                   r.c->work_macs);
      for (std::size_t j = 0; j < r.points.size(); ++j) {
        const Point& p = r.points[j];
        std::fprintf(f, "%s{\"threads\": %d, \"best_ms\": %.4f, \"speedup\": %.3f}",
                     j == 0 ? "" : ", ", p.threads, p.best_ms, p.speedup);
      }
      std::fprintf(f, "]}%s\n", i + 1 == results.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  const auto best_ms_at = [&results](const std::string& name, int threads,
                                     double* out) {
    for (const CaseResult& r : results) {
      if (r.c->name != name) continue;
      for (const Point& p : r.points) {
        if (p.threads != threads) continue;
        *out = p.best_ms;
        return true;
      }
    }
    return false;
  };

  bool failed = false;
  if (assert_speedup > 0.0) {
    bool measured = false;
    for (const CaseResult& r : results) {
      if (r.c->name != assert_case) continue;
      for (const Point& p : r.points) {
        if (p.threads != assert_threads) continue;
        measured = true;
        const bool ok = p.speedup >= assert_speedup;
        std::fprintf(stderr, "assert: %s at %d threads: %.2fx (need >= %.2fx) — %s\n",
                     assert_case.c_str(), assert_threads, p.speedup, assert_speedup,
                     ok ? "PASS" : "FAIL");
        failed = failed || !ok;
      }
    }
    if (!measured) {
      std::fprintf(stderr, "assert: case '%s' with %d threads not measured\n",
                   assert_case.c_str(), assert_threads);
      failed = true;
    }
  }
  if (assert_backend_speedup > 0.0) {
    double scalar_ms = 0.0, simd_ms = 0.0;
    if (!best_ms_at(assert_case, assert_threads, &scalar_ms) ||
        !best_ms_at(assert_case + "@simd", assert_threads, &simd_ms)) {
      std::fprintf(stderr,
                   "assert: backend comparison needs '%s' under both backends at "
                   "%d threads (run with --backends=scalar,simd)\n",
                   assert_case.c_str(), assert_threads);
      failed = true;
    } else {
      const double ratio = simd_ms > 0.0 ? scalar_ms / simd_ms : 0.0;
      const bool ok = ratio >= assert_backend_speedup;
      std::fprintf(stderr,
                   "assert: %s simd (%s tier) vs scalar at %d threads: %.2fx "
                   "(need >= %.2fx) — %s\n",
                   assert_case.c_str(), deploy::simd_tier_name(simd_tier),
                   assert_threads, ratio, assert_backend_speedup, ok ? "PASS" : "FAIL");
      failed = failed || !ok;
    }
  }
  return failed ? 1 : 0;
}
