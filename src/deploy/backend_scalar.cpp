// The byte-exact reference backend: the kernels serve::EngineSession's
// interpreter originally hard-wired, moved behind the Backend seam
// expression for expression. Every other backend's byte-identity
// contract is defined against this file.

#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>

#include "deploy/backend.h"
#include "quant/uniform.h"
#include "tensor/ops.h"

namespace cq::deploy {

namespace {

/// The end of a FloatConv's reference arithmetic on c = a * b (filters x
/// patch x positions) as tensor::gemm left it: the NaN payload rule,
/// then the bias. gemm's `+=` leaves which payload a NaN-plus-NaN sum
/// keeps to the compiler (Release sums the product first, the sanitizer
/// builds the accumulator), so each NaN output is summed again by the
/// rule: ascending p from +0.0, a zero weight skipped, each term
/// add_keeping_nan(product, sum). A sum that is not NaN met no NaN, and
/// an add of two numbers is the same in either operand order, so gemm's
/// own sums stand. A row is scanned first in a loop that vectorizes, so
/// only rows that hold a NaN pay for the re-sum.
void finish_float_conv(const float* a, const float* b, const float* bias, float* c, int m,
                       int k, int n) {
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    std::uint32_t any_nan = 0;
    for (int j = 0; j < n; ++j) {
      any_nan |= static_cast<std::uint32_t>(
          (std::bit_cast<std::uint32_t>(crow[j]) & 0x7fffffffu) > 0x7f800000u);
    }
    if (any_nan != 0) {
      for (int j = 0; j < n; ++j) {
        if (crow[j] == crow[j]) continue;
        float sum = 0.0f;
        for (int p = 0; p < k; ++p) {
          const float av = arow[p];
          if (av != 0.0f) sum = add_keeping_nan(av * b[static_cast<std::size_t>(p) * n + j], sum);
        }
        crow[j] = sum;
      }
    }
    const float bv = bias[i];
    if (bv == 0.0f) continue;
    for (int j = 0; j < n; ++j) crow[j] = add_keeping_nan(crow[j], bv);
  }
}

}  // namespace

void ScalarBackend::run(const PlanOp& op, const ExecutionPlan& plan,
                        const BackendIo& io, BackendScratch& scratch,
                        const util::ExecContext& exec) const {
  const std::vector<PlanSlot>& slots = plan.slots();
  const int batch = io.batch;
  const std::size_t out_numel =
      slots[static_cast<std::size_t>(op.out)].numel * static_cast<std::size_t>(batch);
  const float* in0 = io.in0;
  float* out = io.out;

  // Every case reproduces the float arithmetic of the module it was
  // lowered from, expression for expression — the plan-vs-module
  // byte-identity property test pins this down.
  switch (op.kind) {
    case OpKind::EncodeAct: {
      const quant::UniformRange range{0.0f, op.act_hi};
      quant::quantize_span({in0, out_numel}, {out, out_numel}, range, op.act_bits);
      return;
    }
    case OpKind::Relu: {
      for (std::size_t i = 0; i < out_numel; ++i) {
        out[i] = in0[i] > 0.0f ? in0[i] : 0.0f;
      }
      return;
    }
    case OpKind::Flatten: {
      // Pure reshape; free when the planner aliased the slots.
      if (out != in0) std::memcpy(out, in0, out_numel * sizeof(float));
      return;
    }
    case OpKind::Add: {
      const float* in1 = io.in1;
      for (std::size_t i = 0; i < out_numel; ++i) out[i] = add_keeping_nan(in0[i], in1[i]);
      return;
    }
    case OpKind::BatchNorm: {
      const int spatial = op.in_h * op.in_w;
      for (int c = 0; c < op.in_c; ++c) {
        const auto ci = static_cast<std::size_t>(c);
        const float mean = op.bn_mean[ci];
        const float inv_std = op.bn_inv_std[ci];
        const float g = op.bn_gamma[ci];
        const float b = op.bn_beta[ci];
        for (int n = 0; n < batch; ++n) {
          const std::size_t off =
              (static_cast<std::size_t>(n) * op.in_c + ci) * spatial;
          const float* src = in0 + off;
          float* dst = out + off;
          for (int s = 0; s < spatial; ++s) {
            const float xh = (src[s] - mean) * inv_std;
            dst[s] = g * xh + b;
          }
        }
      }
      return;
    }
    case OpKind::MaxPool: {
      std::size_t oidx = 0;
      for (int n = 0; n < batch; ++n) {
        for (int c = 0; c < op.in_c; ++c) {
          const float* plane =
              in0 + (static_cast<std::size_t>(n) * op.in_c + c) * op.in_h * op.in_w;
          for (int y = 0; y < op.out_h; ++y) {
            for (int x = 0; x < op.out_w; ++x, ++oidx) {
              float best = -std::numeric_limits<float>::infinity();
              for (int ky = 0; ky < op.kernel; ++ky) {
                const int iy = y * op.stride + ky;
                for (int kx = 0; kx < op.kernel; ++kx) {
                  const int ix = x * op.stride + kx;
                  const float v = plane[iy * op.in_w + ix];
                  if (v > best) best = v;
                }
              }
              out[oidx] = best;
            }
          }
        }
      }
      return;
    }
    case OpKind::AvgPool: {
      const int spatial = op.in_h * op.in_w;
      const float inv = 1.0f / static_cast<float>(spatial);
      for (int n = 0; n < batch; ++n) {
        for (int c = 0; c < op.in_c; ++c) {
          const float* plane =
              in0 + (static_cast<std::size_t>(n) * op.in_c + c) * spatial;
          double acc = 0.0;
          for (int s = 0; s < spatial; ++s) acc += plane[s];
          out[static_cast<std::size_t>(n) * op.in_c + c] =
              static_cast<float>(acc) * inv;
        }
      }
      return;
    }
    case OpKind::FloatConv: {
      const std::size_t out_per_sample = slots[static_cast<std::size_t>(op.out)].numel;
      tensor::ConvGeometry g;
      g.in_c = op.in_c;
      g.in_h = op.in_h;
      g.in_w = op.in_w;
      g.kernel = op.kernel;
      g.stride = op.stride;
      g.pad = op.pad;
      const int spatial = op.out_h * op.out_w;
      const std::size_t in_stride =
          static_cast<std::size_t>(op.in_c) * op.in_h * op.in_w;
      const std::size_t out_stride = static_cast<std::size_t>(op.out_c) * spatial;
      // One image per gemm: spread it only over threads it keeps busy.
      const util::ExecContext per_image =
          exec.capped(static_cast<std::int64_t>(op_macs(op)) / kMinMacsPerThread);
      const std::size_t cols = static_cast<std::size_t>(g.patch_size()) * spatial;
      if (scratch.float_cols.size() < cols) scratch.float_cols.resize(cols);
      for (int n = 0; n < batch; ++n) {
        tensor::im2col(in0 + static_cast<std::size_t>(n) * in_stride, g,
                       scratch.float_cols.data(), per_image);
        float* out_n = out + static_cast<std::size_t>(n) * out_stride;
        tensor::gemm(op.weight.data(), scratch.float_cols.data(), out_n, op.out_c,
                     g.patch_size(), spatial, /*accumulate=*/false, per_image);
        finish_float_conv(op.weight.data(), scratch.float_cols.data(), op.bias.data(), out_n,
                          op.out_c, g.patch_size(), spatial);
      }
      apply_epilogue(op, io, out_per_sample, exec);
      return;
    }
    case OpKind::FloatLinear: {
      tensor::gemm_a_bt(in0, op.weight.data(), out, batch, op.in_features,
                        op.out_features, /*accumulate=*/false,
                        exec.capped(static_cast<std::int64_t>(op_macs(op)) * batch /
                                    kMinMacsPerThread));
      for (int n = 0; n < batch; ++n) {
        float* row = out + static_cast<std::size_t>(n) * op.out_features;
        for (int k = 0; k < op.out_features; ++k) {
          row[k] += op.bias[static_cast<std::size_t>(k)];
        }
      }
      apply_epilogue(op, io, slots[static_cast<std::size_t>(op.out)].numel, exec);
      return;
    }
    case OpKind::IntConv: {
      const std::size_t in_count = slots[static_cast<std::size_t>(op.in0)].numel *
                                   static_cast<std::size_t>(batch);
      // in_codes inputs already hold grid codes (an ep_encode producer
      // wrote them); adopting them is a cast, not a re-encode.
      if (op.in_codes) {
        cast_codes_into(in0, in_count, op.act_hi, op.act_bits, scratch.codes, exec);
      } else {
        encode_activations_into(in0, in_count, op.act_hi, op.act_bits, scratch.codes,
                                exec);
      }
      integer_conv_forward_into(
          plan.integer_layers()[static_cast<std::size_t>(op.layer)], scratch.codes,
          batch, op.in_c, op.in_h, op.in_w, op.kernel, op.stride, op.pad, out,
          scratch.int_cols, exec);
      apply_epilogue(op, io, slots[static_cast<std::size_t>(op.out)].numel, exec);
      return;
    }
    case OpKind::IntLinear: {
      const std::size_t in_count = static_cast<std::size_t>(op.in_features) *
                                   static_cast<std::size_t>(batch);
      if (op.in_codes) {
        cast_codes_into(in0, in_count, op.act_hi, op.act_bits, scratch.codes, exec);
      } else {
        encode_activations_into(in0, in_count, op.act_hi, op.act_bits, scratch.codes,
                                exec);
      }
      integer_linear_forward_into(
          plan.integer_layers()[static_cast<std::size_t>(op.layer)], scratch.codes,
          batch, op.in_features, out, exec);
      apply_epilogue(op, io, slots[static_cast<std::size_t>(op.out)].numel, exec);
      return;
    }
  }
}

}  // namespace cq::deploy
