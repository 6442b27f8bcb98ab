#include "quant/uniform.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace cq::quant {

int levels_for_bits(int bits) {
  if (bits <= 0) return 1;
  return 1 << bits;
}

std::string activation_grid_error(int bits, float hi) {
  if (bits < 1 || bits > 16) {
    return "activation bits " + std::to_string(bits) + " outside the encodable [1, 16]";
  }
  if (!(hi > 0.0f)) return "activation clip bound is not positive";
  if (!std::isnormal(hi)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", static_cast<double>(hi));
    return std::string("activation clip bound ") + buf + " is not a finite normal float";
  }
  if (!std::isfinite(static_cast<float>(levels_for_bits(bits) - 1) / hi)) {
    return "activation code scale (levels - 1) / clip bound is not finite";
  }
  return "";
}

namespace {

// Shared kernel of Eq. (1)-(3) so the scalar and span entry points are
// bit-identical: clip, normalize by `scale`, round, rescale. A NaN input
// clips to 0; xc - xc (+0 for every finite clip, NaN for NaN) carries it
// into the result, the training semantics.
inline float quantize_with_scales(float x, UniformRange r, float scale, float inv_scale) {
  const float xc = std::min(std::max(x, r.lo), r.hi);  // NaN stays NaN
  const float q =
      static_cast<float>(round_code(clip_from_lo(x, r) * scale)) + (xc - xc);  // Eq. (2)
  return q * inv_scale + r.lo;                                                // Eq. (3)
}

}  // namespace

float quantize_one(float x, UniformRange r, int bits) {
  if (bits <= 0 || !r.valid()) return 0.0f;
  const int n = levels_for_bits(bits);
  const float scale = static_cast<float>(n - 1) / (r.hi - r.lo);
  const float inv_scale = (r.hi - r.lo) / static_cast<float>(n - 1);
  return quantize_with_scales(x, r, scale, inv_scale);
}

void quantize_span(std::span<const float> src, std::span<float> dst, UniformRange r,
                   int bits) {
  if (bits <= 0 || !r.valid()) {
    std::fill(dst.begin(), dst.end(), 0.0f);
    return;
  }
  const int n = levels_for_bits(bits);
  const float scale = static_cast<float>(n - 1) / (r.hi - r.lo);
  const float inv_scale = (r.hi - r.lo) / static_cast<float>(n - 1);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = quantize_with_scales(src[i], r, scale, inv_scale);
  }
}

UniformRange symmetric_range(std::span<const float> weights) {
  float m = 0.0f;
  for (const float w : weights) m = std::max(m, std::fabs(w));
  return UniformRange{-m, m};
}

// encode/decode deliberately repeat the exact float operations of
// quantize_with_scales so that decode(encode(x)) == quantize_one(x)
// bit-for-bit — the property the deployment artifact round-trip test
// asserts. Do not "simplify" the arithmetic.
int encode(float x, UniformRange r, int bits) {
  const int n = levels_for_bits(bits);
  const float scale = static_cast<float>(n - 1) / (r.hi - r.lo);
  return round_code(clip_from_lo(x, r) * scale);  // NaN -> code 0
}

float decode(int q, UniformRange r, int bits) {
  const int n = levels_for_bits(bits);
  const float inv_scale = (r.hi - r.lo) / static_cast<float>(n - 1);
  return static_cast<float>(q) * inv_scale + r.lo;
}

float max_quantization_error(UniformRange r, int bits) {
  if (!r.valid()) return 0.0f;
  if (bits <= 0) return std::max(std::fabs(r.lo), std::fabs(r.hi));
  return 0.5f * (r.hi - r.lo) / static_cast<float>(levels_for_bits(bits) - 1);
}

}  // namespace cq::quant
