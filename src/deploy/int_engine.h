#pragma once

#include <cstdint>
#include <vector>

#include "deploy/packing.h"
#include "tensor/tensor.h"
#include "util/exec_context.h"

namespace cq::deploy {

/// One packed layer as the plan executes it.
///
/// The paper's motivation for *uniform* quantization is that it "can
/// be implemented on existing neural network processors directly":
/// with a symmetric per-layer weight range and a [0, b] activation
/// range, every MAC becomes an integer multiply-accumulate
///     y = s_w * s_a * sum_j (q_w[j] - z_w) * q_a[j]
/// where q are the integer codes, z_w = (2^bits - 1) / 2 recentres the
/// weight codes and the two scales are applied once per output. The
/// layer is the artifact's PackedLayer — per-filter widths plus the
/// bit-packed codes, the only stored form of integer weights — and its
/// float bias; the kernels decode filter rows through FilterRows.
struct IntegerLayer : PackedLayer {
  std::vector<float> bias;  ///< per-filter float bias (not quantized)

  /// Weight scale of filter k: one step of the symmetric quantizer,
  /// halved because execution doubles the codes to keep the centering
  /// offset integral. 0 for a pruned filter and for a degenerate clip
  /// range, whose unpruned filters then output exactly their bias.
  float weight_scale(int k) const;
};

/// Quantizes a float activation tensor to integer codes under the
/// calibrated [0, hi] range with `bits` levels (the ActQuant setting),
/// returning codes and the scale such that a ~= scale * code.
struct ActCodes {
  std::vector<std::int32_t> codes;  ///< same layout as the input tensor
  float scale = 0.0f;
  int bits = 0;
};
ActCodes encode_activations(const tensor::Tensor& activations, float hi, int bits);

/// Same encoding, writing into a caller-owned ActCodes whose code
/// buffer is reused across calls (the serving hot path encodes one
/// activation tensor per layer and must not reallocate per request).
/// Elementwise and deterministic, so it chunks over `exec` freely.
void encode_activations_into(const tensor::Tensor& activations, float hi, int bits,
                             ActCodes& out, const util::ExecContext& exec = {});

/// Raw-span variant for sources that live in an execution-plan arena
/// rather than a Tensor (same arithmetic, same reuse contract).
void encode_activations_into(const float* activations, std::size_t count, float hi,
                             int bits, ActCodes& out,
                             const util::ExecContext& exec = {});

/// Adopts activations that already *are* grid codes — integers stored
/// as floats by a producer's ep_encode epilogue (all <= 65535, so the
/// float representation is exact) — as an ActCodes buffer for the same
/// [0, hi] x bits grid: one cast per element instead of the
/// clamp/scale/round of a re-encode. By construction this yields the
/// identical codes (and scale) encode_activations_into would have
/// produced from the decoded values, which is what makes
/// quantized-domain propagation byte-exact.
void cast_codes_into(const float* codes, std::size_t count, float hi, int bits,
                     ActCodes& out, const util::ExecContext& exec = {});

/// Executes y[n,k] = s_w(k) * s_a * sum_j (2*q_w - (levels-1)) * q_a / 2
/// + bias[k] over a [N, weights_per_filter] activation-code matrix
/// with pure integer accumulation (std::int64_t, no wrap). This is the
/// arithmetic an integer NPU would run; the float fake-quant forward
/// is its reference semantics. Each filter's codes are decoded from the
/// bitstream on every call.
///
/// Intra-op parallelism: output filters chunk over `exec` (each thread
/// decodes and owns whole weight rows). Integer accumulation is
/// exact and the one float rescale per output is unchanged, so results
/// are byte-identical at every thread count.
tensor::Tensor integer_linear_forward(const IntegerLayer& layer, const ActCodes& acts,
                                      int batch, int in_features,
                                      const util::ExecContext& exec = {});

/// Same kernel writing its [batch, num_filters] outputs into a
/// caller-owned buffer (an ExecutionPlan arena slot), so steady-state
/// plan interpretation allocates nothing per request.
void integer_linear_forward_into(const IntegerLayer& layer, const ActCodes& acts,
                                 int batch, int in_features, float* out,
                                 const util::ExecContext& exec = {});

/// Convolution on integer codes: im2col over the [N, C, H, W]
/// activation-code volume (zero padding is code 0, which is exactly
/// activation 0.0 under the ReLU range), then the same centered
/// integer MACs per filter and output position. layer's
/// weights_per_filter must equal in_c * kernel * kernel. Returns
/// [N, num_filters, out_h, out_w] float outputs (one rescale per
/// output, as in the FC path).
///
/// Intra-op parallelism: per image, the im2col code gather chunks over
/// patch rows and the MAC stage chunks over output filters — each
/// thread owns whole rows of the im2col GEMM, preserving the fixed
/// per-output-element reduction order (byte-identical to serial).
tensor::Tensor integer_conv_forward(const IntegerLayer& layer, const ActCodes& acts,
                                    int batch, int in_c, int height, int width,
                                    int kernel, int stride, int pad,
                                    const util::ExecContext& exec = {});

/// Same kernel writing its [batch, num_filters, out_h, out_w] outputs
/// into a caller-owned buffer. `cols_scratch` is the reusable im2col
/// code matrix (resized as needed, capacity retained across calls).
void integer_conv_forward_into(const IntegerLayer& layer, const ActCodes& acts,
                               int batch, int in_c, int height, int width, int kernel,
                               int stride, int pad, float* out,
                               std::vector<std::int32_t>& cols_scratch,
                               const util::ExecContext& exec = {});

}  // namespace cq::deploy
