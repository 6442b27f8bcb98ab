#include "deploy/int_engine.h"

#include <algorithm>
#include <stdexcept>

#include "quant/uniform.h"
#include "tensor/ops.h"

namespace cq::deploy {

float IntegerLayer::weight_scale(int k) const {
  const int b = filter_bits[static_cast<std::size_t>(k)];
  if (b <= 0 || !(range_hi > 0.0f)) return 0.0f;
  return range_hi / static_cast<float>(quant::levels_for_bits(b) - 1);
}

ActCodes encode_activations(const tensor::Tensor& activations, float hi, int bits) {
  ActCodes out;
  encode_activations_into(activations, hi, bits, out);
  return out;
}

void encode_activations_into(const tensor::Tensor& activations, float hi, int bits,
                             ActCodes& out, const util::ExecContext& exec) {
  encode_activations_into(activations.data(), activations.numel(), hi, bits, out, exec);
}

void encode_activations_into(const float* activations, std::size_t count, float hi,
                             int bits, ActCodes& out, const util::ExecContext& exec) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("encode_activations: bits must be in [1, 16]");
  }
  if (hi <= 0.0f) {
    throw std::invalid_argument("encode_activations: activation range must be positive");
  }
  out.bits = bits;
  const int levels = quant::levels_for_bits(bits);
  out.scale = hi / static_cast<float>(levels - 1);
  const float to_code = static_cast<float>(levels - 1) / hi;
  out.codes.resize(count);
  const float* src = activations;
  std::int32_t* dst = out.codes.data();
  exec.parallel_for(0, static_cast<std::int64_t>(count),
                    [=](std::int64_t lo, std::int64_t hi_i) {
    for (std::int64_t i = lo; i < hi_i; ++i) {
      dst[i] = quant::activation_code(src[i], hi, to_code);
    }
  });
}

void cast_codes_into(const float* codes, std::size_t count, float hi, int bits,
                     ActCodes& out, const util::ExecContext& exec) {
  if (bits < 1 || bits > 16) {
    throw std::invalid_argument("cast_codes: bits must be in [1, 16]");
  }
  if (hi <= 0.0f) {
    throw std::invalid_argument("cast_codes: activation range must be positive");
  }
  out.bits = bits;
  const int levels = quant::levels_for_bits(bits);
  out.scale = hi / static_cast<float>(levels - 1);
  out.codes.resize(count);
  std::int32_t* dst = out.codes.data();
  exec.parallel_for(0, static_cast<std::int64_t>(count),
                    [=](std::int64_t lo, std::int64_t hi_i) {
    for (std::int64_t i = lo; i < hi_i; ++i) {
      dst[i] = static_cast<std::int32_t>(codes[i]);
    }
  });
}

tensor::Tensor integer_linear_forward(const IntegerLayer& layer, const ActCodes& acts,
                                      int batch, int in_features,
                                      const util::ExecContext& exec) {
  tensor::Tensor out({batch, layer.num_filters});
  integer_linear_forward_into(layer, acts, batch, in_features, out.data(), exec);
  return out;
}

void integer_linear_forward_into(const IntegerLayer& layer, const ActCodes& acts,
                                 int batch, int in_features, float* out,
                                 const util::ExecContext& exec) {
  if (in_features != layer.weights_per_filter) {
    throw std::invalid_argument("integer_linear_forward: in_features mismatch");
  }
  if (acts.codes.size() != static_cast<std::size_t>(batch) * in_features) {
    throw std::invalid_argument("integer_linear_forward: activation code count mismatch");
  }
  const std::size_t filters = static_cast<std::size_t>(layer.num_filters);
  const std::int32_t* codes = acts.codes.data();
  // Chunked over output filters: each thread decodes and owns whole
  // weight rows, so every output element keeps its fixed ascending-j
  // reduction.
  exec.parallel_for(0, layer.num_filters, [&](std::int64_t k0, std::int64_t k1) {
    FilterRows rows(layer, static_cast<std::int32_t>(k0));
    std::vector<std::int32_t> w(static_cast<std::size_t>(in_features));
    for (std::int64_t k = k0; k < k1; ++k) {
      rows.read(w);
      const int b = layer.filter_bits[static_cast<std::size_t>(k)];
      if (b == 0) {
        // Pruned filter: output (and bias) are hard zero, matching the
        // fake-quant semantics of 0-bit filters.
        for (int n = 0; n < batch; ++n) {
          out[static_cast<std::size_t>(n) * filters + static_cast<std::size_t>(k)] = 0.0f;
        }
        continue;
      }
      const std::int32_t offset =
          static_cast<std::int32_t>(quant::levels_for_bits(b)) - 1;
      const float scale = layer.weight_scale(static_cast<int>(k)) * acts.scale;
      const float bias = layer.bias[static_cast<std::size_t>(k)];
      for (int n = 0; n < batch; ++n) {
        const std::int32_t* a = codes + static_cast<std::size_t>(n) * in_features;
        // Pure integer MAC loop — the NPU inner product. Centered weight
        // codes are doubled (2q - (levels-1)) so the offset stays integral;
        // weight_scale() is the matching half-step.
        std::int64_t acc = 0;
        for (int j = 0; j < in_features; ++j) {
          acc += static_cast<std::int64_t>(2 * w[j] - offset) *
                 static_cast<std::int64_t>(a[j]);
        }
        out[static_cast<std::size_t>(n) * filters + static_cast<std::size_t>(k)] =
            scale * static_cast<float>(acc) + bias;
      }
    }
  });
}

tensor::Tensor integer_conv_forward(const IntegerLayer& layer, const ActCodes& acts,
                                    int batch, int in_c, int height, int width,
                                    int kernel, int stride, int pad,
                                    const util::ExecContext& exec) {
  const int oh = (height + 2 * pad - kernel) / stride + 1;
  const int ow = (width + 2 * pad - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("integer_conv_forward: empty output");
  }
  tensor::Tensor out({batch, layer.num_filters, oh, ow});
  std::vector<std::int32_t> cols;
  integer_conv_forward_into(layer, acts, batch, in_c, height, width, kernel, stride,
                            pad, out.data(), cols, exec);
  return out;
}

void integer_conv_forward_into(const IntegerLayer& layer, const ActCodes& acts,
                               int batch, int in_c, int height, int width, int kernel,
                               int stride, int pad, float* out,
                               std::vector<std::int32_t>& cols_scratch,
                               const util::ExecContext& exec) {
  if (layer.weights_per_filter != static_cast<std::int64_t>(in_c) * kernel * kernel) {
    throw std::invalid_argument("integer_conv_forward: geometry mismatch");
  }
  const std::size_t image =
      static_cast<std::size_t>(in_c) * static_cast<std::size_t>(height) * width;
  if (acts.codes.size() != static_cast<std::size_t>(batch) * image) {
    throw std::invalid_argument("integer_conv_forward: activation code count mismatch");
  }
  const int oh = (height + 2 * pad - kernel) / stride + 1;
  const int ow = (width + 2 * pad - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("integer_conv_forward: empty output");
  }
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  const std::size_t patch = static_cast<std::size_t>(layer.weights_per_filter);

  cols_scratch.resize(patch * spatial);
  std::int32_t* const cols_data = cols_scratch.data();
  tensor::ConvGeometry geometry;
  geometry.in_c = in_c;
  geometry.in_h = height;
  geometry.in_w = width;
  geometry.kernel = kernel;
  geometry.stride = stride;
  geometry.pad = pad;
  for (int n = 0; n < batch; ++n) {
    const std::int32_t* img = acts.codes.data() + static_cast<std::size_t>(n) * image;
    // Shared im2col (same unfolding as the float training path), on
    // integer codes; zero padding is code 0 = activation 0.0.
    tensor::im2col_any(img, geometry, cols_data, exec);
    float* out_n = out + static_cast<std::size_t>(n) * layer.num_filters * spatial;
    // MAC stage, chunked over output filters (whole GEMM rows). Every
    // output element accumulates its patch in ascending-j order; the
    // int64 accumulator makes the sum exact, so chunking (and the
    // centered-zero skip) cannot change a single bit of the result.
    exec.parallel_for(0, layer.num_filters, [&, out_n](std::int64_t k0, std::int64_t k1) {
      std::vector<std::int64_t> acc(spatial);
      FilterRows rows(layer, static_cast<std::int32_t>(k0));
      std::vector<std::int32_t> w(patch);
      for (std::int64_t k = k0; k < k1; ++k) {
        rows.read(w);
        float* plane = out_n + static_cast<std::size_t>(k) * spatial;
        const int b = layer.filter_bits[static_cast<std::size_t>(k)];
        if (b == 0) {
          // Pruned filter: output (and bias) are hard zero.
          std::fill(plane, plane + spatial, 0.0f);
          continue;
        }
        const std::int32_t offset =
            static_cast<std::int32_t>(quant::levels_for_bits(b)) - 1;
        std::fill(acc.begin(), acc.end(), std::int64_t{0});
        for (std::size_t j = 0; j < patch; ++j) {
          const std::int64_t wv = 2 * static_cast<std::int64_t>(w[j]) - offset;
          if (wv == 0) continue;  // exact: skipping integer zeros adds nothing
          const std::int32_t* crow = cols_data + j * spatial;
          for (std::size_t s = 0; s < spatial; ++s) {
            acc[s] += wv * static_cast<std::int64_t>(crow[s]);
          }
        }
        const float scale = layer.weight_scale(static_cast<int>(k)) * acts.scale;
        const float bias = layer.bias[static_cast<std::size_t>(k)];
        for (std::size_t s = 0; s < spatial; ++s) {
          plane[s] = scale * static_cast<float>(acc[s]) + bias;
        }
      }
    });
  }
}

}  // namespace cq::deploy
