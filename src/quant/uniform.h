#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>

namespace cq::quant {

/// Clipping range [lo, hi] of a uniform quantizer (Eq. 1 of the paper).
/// Weights use a symmetric range (lo = -hi, hi = max|w| of the layer);
/// ReLU activations use lo = 0 and a calibrated hi.
struct UniformRange {
  float lo = 0.0f;
  float hi = 0.0f;

  bool valid() const { return hi > lo; }
};

/// Number of representable levels for `bits` (2^bits); bits <= 0 -> 1
/// level, i.e. everything quantizes to the lower clip bound (pruned
/// weights map to 0 via a symmetric range).
int levels_for_bits(int bits);

/// Applies Eq. (1)-(3): clip x to [r.lo, r.hi], normalize, round to
/// levels_for_bits(bits) levels, rescale. bits == 0 returns 0
/// (the paper's "0-bit means pruned" convention).
float quantize_one(float x, UniformRange r, int bits);

/// Vectorized quantize_one over a span; dst may alias src.
void quantize_span(std::span<const float> src, std::span<float> dst, UniformRange r,
                   int bits);

/// Symmetric weight range of Eq. (1): [-max|w|, max|w|] over `weights`.
/// An all-zero span yields an invalid (degenerate) range; callers treat
/// that layer as already pruned.
UniformRange symmetric_range(std::span<const float> weights);

/// std::round for a non-negative float below 2^31, without the libm
/// call: t = (int)x rounds toward zero, and the fraction x - t is exact
/// (Sterbenz: t <= x < t + 1), so comparing it with 0.5 rounds halves
/// away from zero exactly as std::round does. Branch-free and
/// vectorizable; every site that rounds a clamped value to a grid code
/// goes through it, so the backends cannot round differently.
inline std::int32_t round_code(float x) {
  const auto t = static_cast<std::int32_t>(x);
  return t + (x - static_cast<float>(t) >= 0.5f ? 1 : 0);
}

/// Eq. (1) measured from lo: for every non-NaN x, d > 0 ? min(d, hi -
/// lo) : 0 with d = x - lo equals std::clamp(x, lo, hi) - lo exactly
/// (rounding is monotone), so its scaled value is >= 0 and round_code
/// rounds it as std::round would. NaN clips to 0: it never reaches a
/// float-to-int conversion. Branch-free, so loops over it vectorize.
inline float clip_from_lo(float x, UniformRange r) {
  const float d = x - r.lo;
  return d > 0.0f ? std::min(d, r.hi - r.lo) : 0.0f;
}

/// Grid code of activation v on the [0, hi] grid, to_code being
/// (levels - 1) / hi: clip, scale, round_code. NaN and -inf encode to
/// code 0, activation 0.0.
inline std::int32_t activation_code(float v, float hi, float to_code) {
  return round_code(clip_from_lo(v, UniformRange{0.0f, hi}) * to_code);
}

/// Why [0, hi] x bits cannot be an activation grid, or "" when it can:
/// bits in [1, 16], hi positive, finite and normal, and the code scale
/// (levels - 1) / hi finite, so clip, scale and round never hand a NaN
/// or an infinity to a float-to-int conversion. deploy::load_artifact
/// and deploy::verify_plan both judge grids with it.
std::string activation_grid_error(int bits, float hi);

/// Integer code of x under the quantizer (0 .. levels-1); used by the
/// integer inference engine. bits must be >= 1. NaN encodes to 0.
int encode(float x, UniformRange r, int bits);

/// Real value of integer code `q` (inverse of encode).
float decode(int q, UniformRange r, int bits);

/// Worst-case quantization error (half of one quantization interval).
float max_quantization_error(UniformRange r, int bits);

}  // namespace cq::quant
