// Explicit-SIMD integer backend.
//
// The conv MAC tile and the linear panel sweep run as AVX2 intrinsic
// kernels — _mm256_madd_epi16 over pair-interleaved int16 panels, or
// _mm256_maddubs_epi16 over quad-interleaved int8 panels when the
// shared overflow bound (deploy/overflow.h) proves the instruction's
// saturating intermediate unreachable — and, below AVX2, as the
// portable tier: on x86-64 the same pair-layout MAC built from
// baseline-SSE2 pmaddwd (part of the ABI, legal on every x86-64 CPU
// without a runtime check), GCC-vector-extension kernels elsewhere.
// Which tier runs is decided by runtime CPUID
// (deploy/cpu_features.h), so one binary serves every x86.
//
// pack_simd picks each layer's kernel once, at prepare() time, and
// packs only the layout that kernel reads: the kernels and the
// dispatch label switch on the stored choice instead of re-deriving
// it. Byte identity is inherited, not re-argued: integer accumulation
// below the proven bound is exact in any width and any order, the
// final rescale uses the scalar kernel's exact float expressions
// (multiply then add — never FMA, which rounds differently), and the
// fused tail goes through the shared apply_epilogue. Anything the
// layouts cannot hold exactly delegates to the scalar reference.

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "deploy/backend.h"
#include "deploy/overflow.h"
#include "quant/uniform.h"
#include "tensor/ops.h"

#if defined(__x86_64__) || defined(__i386__)
#define CQ_SIMD_X86 1
#include <immintrin.h>
#else
#define CQ_SIMD_X86 0
#endif

// SSE2 is part of the x86-64 psABI baseline: its intrinsics compile
// and run without a `target` attribute or a CPUID check, so the
// portable tier can use pmaddwd there. 32-bit x86 does not guarantee
// SSE2, and other architectures get the vector-extension kernels.
#if defined(__x86_64__)
#define CQ_SIMD_SSE2_BASELINE 1
#else
#define CQ_SIMD_SSE2_BASELINE 0
#endif

namespace cq::deploy {
namespace simd {

static_assert(kFilterTile == 8,
              "SIMD kernels assume 8-filter panels: one ymm of int32 lanes");

const char* kernel_label(Kernel kernel) {
  switch (kernel) {
    case Kernel::kAvx2I8:
      return "simd/avx2-i8";
    case Kernel::kAvx2I16:
      return "simd/avx2";
    case Kernel::kSse2I16:
    case Kernel::kGeneric:
      return "simd/portable";
    case Kernel::kScalar:
      break;
  }
  return "scalar";
}

std::size_t PackedSimd::bytes() const {
  return pair_panels.size() * sizeof(std::int16_t) +
         quad_panels.size() * sizeof(std::int8_t) +
         weight_scales.size() * sizeof(float) + out_bias.size() * sizeof(float);
}

namespace {

/// The kernel choice, made in this one place. Each predicate is a
/// deploy/overflow.h helper verify_plan also calls, so the verifier's
/// certificate and the kernel that runs cannot disagree.
Kernel select_kernel(const IntegerLayer& layer, SimdTier tier, int act_bits,
                     std::int32_t max_abs_weight) {
  if (tier == SimdTier::kScalar) return Kernel::kScalar;
  for (const std::uint8_t b : layer.filter_bits) {
    // Centered doubled codes span [-(levels-1), levels-1]; above 15
    // bits they overflow the int16 panels (none in the paper's 0-8-bit
    // regime).
    if (b > 15) return Kernel::kScalar;
  }
  // A reduction the int32 accumulator may not hold exactly needs the
  // scalar reference's int64 one.
  if (!int_reduction_fits_int32(max_abs_weight, act_bits, layer.weights_per_filter)) {
    return Kernel::kScalar;
  }
  // 16-bit activation codes don't fit the int16 activation pairs; the
  // generic kernels read the int32 codes directly.
  if (act_bits > 15) return Kernel::kGeneric;
#if CQ_SIMD_X86
  if (tier == SimdTier::kAvx2) {
    return int_reduction_fits_int8_madd(max_abs_weight, act_bits,
                                        layer.weights_per_filter)
               ? Kernel::kAvx2I8
               : Kernel::kAvx2I16;
  }
#endif
#if CQ_SIMD_SSE2_BASELINE
  return Kernel::kSse2I16;
#else
  return Kernel::kGeneric;
#endif
}

/// The layer's centered doubled codes interleaved into panels of
/// kFilterTile filters x kGroup adjacent reduction slots: code j of
/// filter k lands at [k / tile][j / kGroup][k % tile][j % kGroup]. Tail
/// lanes, tail reduction slots and pruned (0-bit) rows stay zero.
template <std::size_t kGroup, typename T>
std::vector<T> interleave_panels(const IntegerLayer& layer) {
  const std::size_t filters = static_cast<std::size_t>(layer.num_filters);
  const std::size_t patch = static_cast<std::size_t>(layer.weights_per_filter);
  const std::size_t tile_size = (patch + kGroup - 1) / kGroup * kFilterTile * kGroup;
  std::vector<T> panels((filters + kFilterTile - 1) / kFilterTile * tile_size, 0);
  for (std::size_t k = 0; k < filters; ++k) {
    const int b = layer.filter_bits[k];
    if (b == 0) continue;
    const std::int32_t offset = static_cast<std::int32_t>(quant::levels_for_bits(b)) - 1;
    const std::int32_t* row = layer.codes.data() + k * patch;
    T* dst = panels.data() + (k / kFilterTile) * tile_size + (k % kFilterTile) * kGroup;
    for (std::size_t j = 0; j < patch; ++j) {
      dst[(j / kGroup) * kFilterTile * kGroup + j % kGroup] =
          static_cast<T>(2 * row[j] - offset);
    }
  }
  return panels;
}

}  // namespace

PackedSimd pack_simd(const IntegerLayer& layer, SimdTier tier, int act_bits) {
  PackedSimd packed;
  packed.act_bits = act_bits;
  packed.num_filters = layer.num_filters;
  packed.weights_per_filter = layer.weights_per_filter;
  // The shared overflow-bound helper scans the same codes the panels
  // hold, so the kernel choice and verify_plan's certificate start
  // from the same number.
  packed.max_abs_weight = max_abs_centered_code(layer);
  packed.kernel = select_kernel(layer, tier, act_bits, packed.max_abs_weight);
  if (packed.kernel == Kernel::kScalar) return packed;

  if (packed.kernel == Kernel::kAvx2I8) {
    packed.quad_panels = interleave_panels<4, std::int8_t>(layer);
  } else {
    packed.pair_panels = interleave_panels<2, std::int16_t>(layer);
  }
  const std::size_t filters = static_cast<std::size_t>(layer.num_filters);
  packed.weight_scales.resize(filters);
  packed.out_bias.resize(filters);
  for (std::size_t k = 0; k < filters; ++k) {
    packed.weight_scales[k] = layer.weight_scale(static_cast<int>(k));  // 0 if pruned
    packed.out_bias[k] = layer.filter_bits[k] == 0 ? 0.0f : layer.bias[k];
  }
  return packed;
}

namespace {

/// Samples per weight-panel sweep of the linear kernels: each panel
/// row is loaded once and multiplied into this many samples'
/// accumulators, amortizing the weight traffic over the batch.
inline constexpr int kBatchBlock = 4;

/// The kernels' entry check: the pack must carry panels, and the
/// activation grid must be no wider than the one the kernel choice was
/// certified for (a narrower grid only shrinks the overflow bound).
void check_runnable(const PackedSimd& packed, const ActCodes& acts, const char* kernel) {
  if (packed.kernel == Kernel::kScalar) {
    throw std::logic_error(std::string(kernel) +
                           ": layer has no SIMD panels (delegate to the scalar kernels)");
  }
  if (acts.bits > packed.act_bits) {
    throw std::logic_error(std::string(kernel) + ": " + std::to_string(acts.bits) +
                           "-bit activation codes exceed the " +
                           std::to_string(packed.act_bits) +
                           "-bit grid the layer was packed for");
  }
}

/// Rewrites one image's im2col matrix [patch][spatial] into the
/// pair-interleaved int16 layout [pairs][spatial][2] the madd_epi16
/// conv kernel consumes. A missing odd row is written as zeros (exact:
/// 0 * anything = 0). Codes are non-negative and the int16 kernels are
/// only chosen for act_bits <= 15, so the narrowing is value-preserving.
void build_pair_cols(const std::int32_t* cols, std::size_t patch,
                     std::size_t spatial, std::int16_t* cols16,
                     const util::ExecContext& exec) {
  const std::size_t pairs = (patch + 1) / 2;
  exec.parallel_for(0, static_cast<std::int64_t>(pairs),
                    [=](std::int64_t p0, std::int64_t p1) {
    for (std::int64_t p = p0; p < p1; ++p) {
      const std::size_t j0 = static_cast<std::size_t>(p) * 2;
      const std::int32_t* r0 = cols + j0 * spatial;
      const std::int32_t* r1 = j0 + 1 < patch ? r0 + spatial : nullptr;
      std::int16_t* dst = cols16 + static_cast<std::size_t>(p) * spatial * 2;
      for (std::size_t s = 0; s < spatial; ++s) {
        dst[s * 2] = static_cast<std::int16_t>(r0[s]);
        dst[s * 2 + 1] = r1 != nullptr ? static_cast<std::int16_t>(r1[s]) : 0;
      }
    }
  });
}

/// Same rewrite into the quad-interleaved uint8 layout [quads][spatial][4]
/// for the maddubs path, which is only chosen for act_bits <= 8.
void build_quad_cols(const std::int32_t* cols, std::size_t patch,
                     std::size_t spatial, std::uint8_t* cols8,
                     const util::ExecContext& exec) {
  const std::size_t quads = (patch + 3) / 4;
  exec.parallel_for(0, static_cast<std::int64_t>(quads),
                    [=](std::int64_t q0, std::int64_t q1) {
    for (std::int64_t q = q0; q < q1; ++q) {
      const std::size_t j0 = static_cast<std::size_t>(q) * 4;
      std::uint8_t* dst = cols8 + static_cast<std::size_t>(q) * spatial * 4;
      for (std::size_t s = 0; s < spatial; ++s) {
        for (std::size_t r = 0; r < 4; ++r) {
          dst[s * 4 + r] =
              j0 + r < patch
                  ? static_cast<std::uint8_t>(cols[(j0 + r) * spatial + s])
                  : 0;
        }
      }
    }
  });
}

/// Narrows the [batch][features] activation code matrix to int16,
/// zero-padding each row to the pair boundary.
void build_pair_acts(const ActCodes& acts, int batch, std::size_t features,
                     std::int16_t* acts16, const util::ExecContext& exec) {
  const std::size_t padded = ((features + 1) / 2) * 2;
  exec.parallel_for(0, batch, [=, &acts](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t n = n0; n < n1; ++n) {
      const std::int32_t* src =
          acts.codes.data() + static_cast<std::size_t>(n) * features;
      std::int16_t* dst = acts16 + static_cast<std::size_t>(n) * padded;
      for (std::size_t j = 0; j < features; ++j) {
        dst[j] = static_cast<std::int16_t>(src[j]);
      }
      for (std::size_t j = features; j < padded; ++j) dst[j] = 0;
    }
  });
}

/// Same, to uint8 at the quad boundary.
void build_quad_acts(const ActCodes& acts, int batch, std::size_t features,
                     std::uint8_t* acts8, const util::ExecContext& exec) {
  const std::size_t padded = ((features + 3) / 4) * 4;
  exec.parallel_for(0, batch, [=, &acts](std::int64_t n0, std::int64_t n1) {
    for (std::int64_t n = n0; n < n1; ++n) {
      const std::int32_t* src =
          acts.codes.data() + static_cast<std::size_t>(n) * features;
      std::uint8_t* dst = acts8 + static_cast<std::size_t>(n) * padded;
      for (std::size_t j = 0; j < features; ++j) {
        dst[j] = static_cast<std::uint8_t>(src[j]);
      }
      for (std::size_t j = features; j < padded; ++j) dst[j] = 0;
    }
  });
}

// ---------------------------------------------------------------------------
// Portable tier, generic flavor (Kernel::kGeneric): GNU C vector
// extensions, compiled at the build's baseline ISA so the kernels are
// legal wherever the binary runs. On x86-64 the portable tier instead
// uses the baseline-SSE2 pmaddwd kernels further down (the psABI
// guarantees SSE2, and emulated int32 vector multiplies make these
// generic kernels slow there); these remain the implementation for
// non-x86 builds and for 16-bit activation codes, which don't fit the
// int16 activation pairs. They read the int32 codes directly and the
// weights of reduction row j from the pair panel at [j/2][f][j%2].
// ---------------------------------------------------------------------------

typedef std::int32_t Vec8i __attribute__((vector_size(32), aligned(4)));
typedef float Vec8f __attribute__((vector_size(32), aligned(4)));

/// Row j of a tile's pair panel: lane f's weight sits at [j/2][f][j%2],
/// so the row's 8 weights are every other int16 from here.
const std::int16_t* pair_row(const std::int16_t* panel, std::size_t j) {
  return panel + (j / 2) * kFilterTile * 2 + j % 2;
}

/// Conv MAC over one image, filter tiles [t0, t1): 8 output positions
/// per vector accumulator, weights read as scalars and broadcast.
void conv_tiles_generic(const PackedSimd& packed, float act_scale,
                        const std::int32_t* cols, std::size_t patch,
                        std::size_t spatial, float* out_n, std::int64_t t0,
                        std::int64_t t1) {
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  const std::size_t pairs = (patch + 1) / 2;
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int16_t* panel =
        packed.pair_panels.data() + static_cast<std::size_t>(t) * pairs * kFilterTile * 2;
    const std::size_t k0 = static_cast<std::size_t>(t) * kFilterTile;
    const int kt = static_cast<int>(std::min<std::size_t>(kFilterTile, filters - k0));
    std::size_t s = 0;
    for (; s + 8 <= spatial; s += 8) {
      Vec8i acc[kFilterTile] = {};
      for (std::size_t j = 0; j < patch; ++j) {
        Vec8i a;
        std::memcpy(&a, cols + j * spatial + s, sizeof(a));
        const std::int16_t* w = pair_row(panel, j);
        for (int f = 0; f < kFilterTile; ++f) {
          const std::int32_t wv = w[f * 2];
          if (wv == 0) continue;  // exact: pruned lanes add nothing
          acc[f] += a * wv;
        }
      }
      for (int f = 0; f < kt; ++f) {
        const std::size_t k = k0 + static_cast<std::size_t>(f);
        const float scale = packed.weight_scales[k] * act_scale;
        const Vec8f o = __builtin_convertvector(acc[f], Vec8f) * scale +
                        packed.out_bias[k];
        std::memcpy(out_n + k * spatial + s, &o, sizeof(o));
      }
    }
    for (; s < spatial; ++s) {  // spatial tail: scalar, same int32 sums
      for (int f = 0; f < kt; ++f) {
        std::int32_t acc = 0;
        for (std::size_t j = 0; j < patch; ++j) {
          acc += static_cast<std::int32_t>(pair_row(panel, j)[f * 2]) *
                 cols[j * spatial + s];
        }
        const std::size_t k = k0 + static_cast<std::size_t>(f);
        const float scale = packed.weight_scales[k] * act_scale;
        out_n[k * spatial + s] =
            scale * static_cast<float>(acc) + packed.out_bias[k];
      }
    }
  }
}

/// Linear MAC, filter tiles [t0, t1): each weight row is gathered into
/// a full int32 vector once and multiplied into kBatchBlock samples'
/// 8-wide accumulators.
void linear_tiles_generic(const PackedSimd& packed, const ActCodes& acts,
                          int batch, std::size_t features, float* out,
                          std::int64_t t0, std::int64_t t1) {
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  const std::size_t pairs = (features + 1) / 2;
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int16_t* panel =
        packed.pair_panels.data() + static_cast<std::size_t>(t) * pairs * kFilterTile * 2;
    const std::size_t k0 = static_cast<std::size_t>(t) * kFilterTile;
    const int kt = static_cast<int>(std::min<std::size_t>(kFilterTile, filters - k0));
    for (int n0 = 0; n0 < batch; n0 += kBatchBlock) {
      const int nb = std::min(kBatchBlock, batch - n0);
      const std::int32_t* a =
          acts.codes.data() + static_cast<std::size_t>(n0) * features;
      Vec8i acc[kBatchBlock] = {};
      for (std::size_t j = 0; j < features; ++j) {
        const std::int16_t* wj = pair_row(panel, j);
        const Vec8i w = {wj[0], wj[2], wj[4], wj[6], wj[8], wj[10], wj[12], wj[14]};
        for (int b = 0; b < nb; ++b) {
          const std::int32_t av = a[static_cast<std::size_t>(b) * features + j];
          if (av == 0) continue;  // exact: zero codes add nothing
          acc[b] += w * av;
        }
      }
      for (int b = 0; b < nb; ++b) {
        float* row = out + static_cast<std::size_t>(n0 + b) * filters;
        for (int f = 0; f < kt; ++f) {
          const std::size_t k = k0 + static_cast<std::size_t>(f);
          const float scale = packed.weight_scales[k] * acts.scale;
          row[k] = scale * static_cast<float>(acc[b][f]) + packed.out_bias[k];
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AVX2 tier: intrinsic kernels compiled with the `target` attribute so
// the translation unit builds at the baseline ISA; they are only
// called after runtime CPUID proved AVX2 (deploy/cpu_features.h).
// No FMA anywhere on these paths: the rescale is cvtepi32_ps, mul_ps,
// add_ps — bit-identical to the scalar expression's two roundings.
// ---------------------------------------------------------------------------

#if CQ_SIMD_X86

/// Conv MAC over pair-interleaved int16 codes: one madd_epi16 per
/// (pair, filter) computes w[j]*a[j] + w[j+1]*a[j+1] for 8 output
/// positions at once.
__attribute__((target("avx2"))) void conv_tiles_avx2_i16(
    const PackedSimd& packed, float act_scale, const std::int16_t* cols16,
    std::size_t pairs, std::size_t spatial, float* out_n, std::int64_t t0,
    std::int64_t t1) {
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int16_t* panel =
        packed.pair_panels.data() +
        static_cast<std::size_t>(t) * pairs * kFilterTile * 2;
    const std::size_t k0 = static_cast<std::size_t>(t) * kFilterTile;
    const int kt = static_cast<int>(std::min<std::size_t>(kFilterTile, filters - k0));
    std::size_t s = 0;
    for (; s + 8 <= spatial; s += 8) {
      __m256i acc[kFilterTile];
      for (auto& v : acc) v = _mm256_setzero_si256();
      for (std::size_t p = 0; p < pairs; ++p) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(cols16 + (p * spatial + s) * 2));
        const std::int16_t* w = panel + p * kFilterTile * 2;
        for (int f = 0; f < kFilterTile; ++f) {
          std::uint32_t wpair;
          std::memcpy(&wpair, w + f * 2, sizeof(wpair));
          if (wpair == 0) continue;  // exact: pruned pairs add nothing
          const __m256i wv = _mm256_set1_epi32(static_cast<std::int32_t>(wpair));
          acc[f] = _mm256_add_epi32(acc[f], _mm256_madd_epi16(a, wv));
        }
      }
      for (int f = 0; f < kt; ++f) {
        const std::size_t k = k0 + static_cast<std::size_t>(f);
        const float scale = packed.weight_scales[k] * act_scale;
        const __m256 o = _mm256_add_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(acc[f]), _mm256_set1_ps(scale)),
            _mm256_set1_ps(packed.out_bias[k]));
        _mm256_storeu_ps(out_n + k * spatial + s, o);
      }
    }
    for (; s < spatial; ++s) {  // spatial tail: scalar over the pair layout
      for (int f = 0; f < kt; ++f) {
        std::int32_t acc = 0;
        for (std::size_t p = 0; p < pairs; ++p) {
          const std::int16_t* w = panel + (p * kFilterTile + static_cast<std::size_t>(f)) * 2;
          const std::int16_t* a = cols16 + (p * spatial + s) * 2;
          acc += static_cast<std::int32_t>(w[0]) * a[0] +
                 static_cast<std::int32_t>(w[1]) * a[1];
        }
        const std::size_t k = k0 + static_cast<std::size_t>(f);
        const float scale = packed.weight_scales[k] * act_scale;
        out_n[k * spatial + s] =
            scale * static_cast<float>(acc) + packed.out_bias[k];
      }
    }
  }
}

/// Conv MAC over quad-interleaved uint8 codes: maddubs_epi16 forms the
/// two adjacent-pair sums (proven below int16 saturation by
/// int_reduction_fits_int8_madd), madd_epi16 against 1 widens and
/// adds them — a full weight quad per instruction pair, 8 positions
/// wide.
__attribute__((target("avx2"))) void conv_tiles_avx2_i8(
    const PackedSimd& packed, float act_scale, const std::uint8_t* cols8,
    std::size_t quads, std::size_t spatial, float* out_n, std::int64_t t0,
    std::int64_t t1) {
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int8_t* panel =
        packed.quad_panels.data() +
        static_cast<std::size_t>(t) * quads * kFilterTile * 4;
    const std::size_t k0 = static_cast<std::size_t>(t) * kFilterTile;
    const int kt = static_cast<int>(std::min<std::size_t>(kFilterTile, filters - k0));
    std::size_t s = 0;
    for (; s + 8 <= spatial; s += 8) {
      __m256i acc[kFilterTile];
      for (auto& v : acc) v = _mm256_setzero_si256();
      for (std::size_t q = 0; q < quads; ++q) {
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(cols8 + (q * spatial + s) * 4));
        const std::int8_t* w = panel + q * kFilterTile * 4;
        for (int f = 0; f < kFilterTile; ++f) {
          std::uint32_t wquad;
          std::memcpy(&wquad, w + f * 4, sizeof(wquad));
          if (wquad == 0) continue;  // exact: pruned quads add nothing
          const __m256i wv = _mm256_set1_epi32(static_cast<std::int32_t>(wquad));
          const __m256i prod = _mm256_maddubs_epi16(a, wv);  // u8 acts x s8 weights
          acc[f] = _mm256_add_epi32(acc[f], _mm256_madd_epi16(prod, ones));
        }
      }
      for (int f = 0; f < kt; ++f) {
        const std::size_t k = k0 + static_cast<std::size_t>(f);
        const float scale = packed.weight_scales[k] * act_scale;
        const __m256 o = _mm256_add_ps(
            _mm256_mul_ps(_mm256_cvtepi32_ps(acc[f]), _mm256_set1_ps(scale)),
            _mm256_set1_ps(packed.out_bias[k]));
        _mm256_storeu_ps(out_n + k * spatial + s, o);
      }
    }
    for (; s < spatial; ++s) {  // spatial tail: scalar over the quad layout
      for (int f = 0; f < kt; ++f) {
        std::int32_t acc = 0;
        for (std::size_t q = 0; q < quads; ++q) {
          const std::int8_t* w = panel + (q * kFilterTile + static_cast<std::size_t>(f)) * 4;
          const std::uint8_t* a = cols8 + (q * spatial + s) * 4;
          for (std::size_t r = 0; r < 4; ++r) {
            acc += static_cast<std::int32_t>(w[r]) * a[r];
          }
        }
        const std::size_t k = k0 + static_cast<std::size_t>(f);
        const float scale = packed.weight_scales[k] * act_scale;
        out_n[k * spatial + s] =
            scale * static_cast<float>(acc) + packed.out_bias[k];
      }
    }
  }
}

/// Linear MAC over pair-interleaved int16 activations: per pair, one
/// 32-byte panel row (8 filters x 1 pair) is multiplied against each
/// sample's broadcast activation pair.
__attribute__((target("avx2"))) void linear_tiles_avx2_i16(
    const PackedSimd& packed, const ActCodes& acts, const std::int16_t* acts16,
    int batch, std::size_t pairs, float* out, std::int64_t t0, std::int64_t t1) {
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  const std::size_t padded = pairs * 2;
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int16_t* panel =
        packed.pair_panels.data() +
        static_cast<std::size_t>(t) * pairs * kFilterTile * 2;
    const std::size_t k0 = static_cast<std::size_t>(t) * kFilterTile;
    const int kt = static_cast<int>(std::min<std::size_t>(kFilterTile, filters - k0));
    for (int n0 = 0; n0 < batch; n0 += kBatchBlock) {
      const int nb = std::min(kBatchBlock, batch - n0);
      __m256i acc[kBatchBlock];
      for (auto& v : acc) v = _mm256_setzero_si256();
      for (std::size_t p = 0; p < pairs; ++p) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(panel + p * kFilterTile * 2));
        for (int b = 0; b < nb; ++b) {
          std::uint32_t apair;
          std::memcpy(&apair,
                      acts16 + static_cast<std::size_t>(n0 + b) * padded + p * 2,
                      sizeof(apair));
          if (apair == 0) continue;  // exact: zero codes add nothing
          const __m256i av = _mm256_set1_epi32(static_cast<std::int32_t>(apair));
          acc[b] = _mm256_add_epi32(acc[b], _mm256_madd_epi16(av, w));
        }
      }
      for (int b = 0; b < nb; ++b) {
        float* row = out + static_cast<std::size_t>(n0 + b) * filters;
        if (kt == kFilterTile) {
          const __m256 vscale =
              _mm256_mul_ps(_mm256_loadu_ps(packed.weight_scales.data() + k0),
                            _mm256_set1_ps(acts.scale));
          const __m256 o = _mm256_add_ps(
              _mm256_mul_ps(_mm256_cvtepi32_ps(acc[b]), vscale),
              _mm256_loadu_ps(packed.out_bias.data() + k0));
          _mm256_storeu_ps(row + k0, o);
        } else {
          alignas(32) std::int32_t tmp[kFilterTile];
          _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc[b]);
          for (int f = 0; f < kt; ++f) {
            const std::size_t k = k0 + static_cast<std::size_t>(f);
            const float scale = packed.weight_scales[k] * acts.scale;
            row[k] = scale * static_cast<float>(tmp[f]) + packed.out_bias[k];
          }
        }
      }
    }
  }
}

/// Linear MAC over quad-interleaved uint8 activations via maddubs.
__attribute__((target("avx2"))) void linear_tiles_avx2_i8(
    const PackedSimd& packed, const ActCodes& acts, const std::uint8_t* acts8,
    int batch, std::size_t quads, float* out, std::int64_t t0, std::int64_t t1) {
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  const std::size_t padded = quads * 4;
  const __m256i ones = _mm256_set1_epi16(1);
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int8_t* panel =
        packed.quad_panels.data() +
        static_cast<std::size_t>(t) * quads * kFilterTile * 4;
    const std::size_t k0 = static_cast<std::size_t>(t) * kFilterTile;
    const int kt = static_cast<int>(std::min<std::size_t>(kFilterTile, filters - k0));
    for (int n0 = 0; n0 < batch; n0 += kBatchBlock) {
      const int nb = std::min(kBatchBlock, batch - n0);
      __m256i acc[kBatchBlock];
      for (auto& v : acc) v = _mm256_setzero_si256();
      for (std::size_t q = 0; q < quads; ++q) {
        const __m256i w = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(panel + q * kFilterTile * 4));
        for (int b = 0; b < nb; ++b) {
          std::uint32_t aquad;
          std::memcpy(&aquad,
                      acts8 + static_cast<std::size_t>(n0 + b) * padded + q * 4,
                      sizeof(aquad));
          if (aquad == 0) continue;  // exact: zero codes add nothing
          const __m256i av = _mm256_set1_epi32(static_cast<std::int32_t>(aquad));
          const __m256i prod = _mm256_maddubs_epi16(av, w);  // u8 acts x s8 weights
          acc[b] = _mm256_add_epi32(acc[b], _mm256_madd_epi16(prod, ones));
        }
      }
      for (int b = 0; b < nb; ++b) {
        float* row = out + static_cast<std::size_t>(n0 + b) * filters;
        if (kt == kFilterTile) {
          const __m256 vscale =
              _mm256_mul_ps(_mm256_loadu_ps(packed.weight_scales.data() + k0),
                            _mm256_set1_ps(acts.scale));
          const __m256 o = _mm256_add_ps(
              _mm256_mul_ps(_mm256_cvtepi32_ps(acc[b]), vscale),
              _mm256_loadu_ps(packed.out_bias.data() + k0));
          _mm256_storeu_ps(row + k0, o);
        } else {
          alignas(32) std::int32_t tmp[kFilterTile];
          _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), acc[b]);
          for (int f = 0; f < kt; ++f) {
            const std::size_t k = k0 + static_cast<std::size_t>(f);
            const float scale = packed.weight_scales[k] * acts.scale;
            row[k] = scale * static_cast<float>(tmp[f]) + packed.out_bias[k];
          }
        }
      }
    }
  }
}

#if CQ_SIMD_SSE2_BASELINE

/// Portable-tier conv MAC on x86-64: the avx2_i16 kernel at xmm width.
/// pmaddwd is baseline (x86-64 psABI mandates SSE2), so this runs on
/// every CPU the binary runs on — no runtime check needed. 4 output
/// positions per strip, one madd_epi16 per (pair, filter).
void conv_tiles_sse2_i16(const PackedSimd& packed, float act_scale,
                         const std::int16_t* cols16, std::size_t pairs,
                         std::size_t spatial, float* out_n, std::int64_t t0,
                         std::int64_t t1) {
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int16_t* panel =
        packed.pair_panels.data() +
        static_cast<std::size_t>(t) * pairs * kFilterTile * 2;
    const std::size_t k0 = static_cast<std::size_t>(t) * kFilterTile;
    const int kt = static_cast<int>(std::min<std::size_t>(kFilterTile, filters - k0));
    std::size_t s = 0;
    for (; s + 4 <= spatial; s += 4) {
      __m128i acc[kFilterTile];
      for (auto& v : acc) v = _mm_setzero_si128();
      for (std::size_t p = 0; p < pairs; ++p) {
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(cols16 + (p * spatial + s) * 2));
        const std::int16_t* w = panel + p * kFilterTile * 2;
        for (int f = 0; f < kFilterTile; ++f) {
          std::uint32_t wpair;
          std::memcpy(&wpair, w + f * 2, sizeof(wpair));
          if (wpair == 0) continue;  // exact: pruned pairs add nothing
          const __m128i wv = _mm_set1_epi32(static_cast<std::int32_t>(wpair));
          acc[f] = _mm_add_epi32(acc[f], _mm_madd_epi16(a, wv));
        }
      }
      for (int f = 0; f < kt; ++f) {
        const std::size_t k = k0 + static_cast<std::size_t>(f);
        const float scale = packed.weight_scales[k] * act_scale;
        const __m128 o =
            _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(acc[f]), _mm_set1_ps(scale)),
                       _mm_set1_ps(packed.out_bias[k]));
        _mm_storeu_ps(out_n + k * spatial + s, o);
      }
    }
    for (; s < spatial; ++s) {  // spatial tail: scalar over the pair layout
      for (int f = 0; f < kt; ++f) {
        std::int32_t acc = 0;
        for (std::size_t p = 0; p < pairs; ++p) {
          const std::int16_t* w = panel + (p * kFilterTile + static_cast<std::size_t>(f)) * 2;
          const std::int16_t* a = cols16 + (p * spatial + s) * 2;
          acc += static_cast<std::int32_t>(w[0]) * a[0] +
                 static_cast<std::int32_t>(w[1]) * a[1];
        }
        const std::size_t k = k0 + static_cast<std::size_t>(f);
        const float scale = packed.weight_scales[k] * act_scale;
        out_n[k * spatial + s] =
            scale * static_cast<float>(acc) + packed.out_bias[k];
      }
    }
  }
}

/// Portable-tier linear MAC on x86-64: per pair, the 8-filter panel
/// row is two xmm loads; each sample's broadcast activation pair
/// feeds both halves' accumulators through pmaddwd.
void linear_tiles_sse2_i16(const PackedSimd& packed, const ActCodes& acts,
                           const std::int16_t* acts16, int batch,
                           std::size_t pairs, float* out, std::int64_t t0,
                           std::int64_t t1) {
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  const std::size_t padded = pairs * 2;
  for (std::int64_t t = t0; t < t1; ++t) {
    const std::int16_t* panel =
        packed.pair_panels.data() +
        static_cast<std::size_t>(t) * pairs * kFilterTile * 2;
    const std::size_t k0 = static_cast<std::size_t>(t) * kFilterTile;
    const int kt = static_cast<int>(std::min<std::size_t>(kFilterTile, filters - k0));
    for (int n0 = 0; n0 < batch; n0 += kBatchBlock) {
      const int nb = std::min(kBatchBlock, batch - n0);
      __m128i acc[kBatchBlock][2];
      for (auto& halves : acc) {
        for (auto& v : halves) v = _mm_setzero_si128();
      }
      for (std::size_t p = 0; p < pairs; ++p) {
        const std::int16_t* w = panel + p * kFilterTile * 2;
        const __m128i w_lo =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(w));
        const __m128i w_hi =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + 8));
        for (int b = 0; b < nb; ++b) {
          std::uint32_t apair;
          std::memcpy(&apair,
                      acts16 + static_cast<std::size_t>(n0 + b) * padded + p * 2,
                      sizeof(apair));
          if (apair == 0) continue;  // exact: zero codes add nothing
          const __m128i av = _mm_set1_epi32(static_cast<std::int32_t>(apair));
          acc[b][0] = _mm_add_epi32(acc[b][0], _mm_madd_epi16(av, w_lo));
          acc[b][1] = _mm_add_epi32(acc[b][1], _mm_madd_epi16(av, w_hi));
        }
      }
      for (int b = 0; b < nb; ++b) {
        float* row = out + static_cast<std::size_t>(n0 + b) * filters;
        if (kt == kFilterTile) {
          for (int h = 0; h < 2; ++h) {
            const std::size_t kh = k0 + static_cast<std::size_t>(h) * 4;
            const __m128 vscale =
                _mm_mul_ps(_mm_loadu_ps(packed.weight_scales.data() + kh),
                           _mm_set1_ps(acts.scale));
            const __m128 o = _mm_add_ps(
                _mm_mul_ps(_mm_cvtepi32_ps(acc[b][h]), vscale),
                _mm_loadu_ps(packed.out_bias.data() + kh));
            _mm_storeu_ps(row + kh, o);
          }
        } else {
          alignas(16) std::int32_t tmp[kFilterTile];
          _mm_store_si128(reinterpret_cast<__m128i*>(tmp), acc[b][0]);
          _mm_store_si128(reinterpret_cast<__m128i*>(tmp + 4), acc[b][1]);
          for (int f = 0; f < kt; ++f) {
            const std::size_t k = k0 + static_cast<std::size_t>(f);
            const float scale = packed.weight_scales[k] * acts.scale;
            row[k] = scale * static_cast<float>(tmp[f]) + packed.out_bias[k];
          }
        }
      }
    }
  }
}

#endif  // CQ_SIMD_SSE2_BASELINE

#endif  // CQ_SIMD_X86

}  // namespace

void conv_forward_into(const PackedSimd& packed, const ActCodes& acts, int batch,
                       int in_c, int height, int width, int kernel, int stride,
                       int pad, float* out, std::vector<std::int32_t>& cols_scratch,
                       std::vector<std::int16_t>& cols16_scratch,
                       std::vector<std::uint8_t>& cols8_scratch,
                       const util::ExecContext& exec) {
  check_runnable(packed, acts, "simd::conv_forward_into");
  if (packed.weights_per_filter !=
      static_cast<std::int64_t>(in_c) * kernel * kernel) {
    throw std::invalid_argument("simd::conv_forward_into: geometry mismatch");
  }
  const std::size_t image =
      static_cast<std::size_t>(in_c) * static_cast<std::size_t>(height) * width;
  if (acts.codes.size() != static_cast<std::size_t>(batch) * image) {
    throw std::invalid_argument(
        "simd::conv_forward_into: activation code count mismatch");
  }
  const int oh = (height + 2 * pad - kernel) / stride + 1;
  const int ow = (width + 2 * pad - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) {
    throw std::invalid_argument("simd::conv_forward_into: empty output");
  }
  const std::size_t spatial = static_cast<std::size_t>(oh) * ow;
  const std::size_t patch = static_cast<std::size_t>(packed.weights_per_filter);
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  const std::size_t tiles = (filters + kFilterTile - 1) / kFilterTile;
  const std::size_t pairs = (patch + 1) / 2;
  const std::size_t quads = (patch + 3) / 4;

  cols_scratch.resize(patch * spatial);
  std::int32_t* const cols_data = cols_scratch.data();
  tensor::ConvGeometry geometry;
  geometry.in_c = in_c;
  geometry.in_h = height;
  geometry.in_w = width;
  geometry.kernel = kernel;
  geometry.stride = stride;
  geometry.pad = pad;
  // The narrowed activation layout the kernel reads, if any; the
  // generic kernel reads the int32 im2col matrix itself.
  const bool quad_cols = packed.kernel == Kernel::kAvx2I8;
  const bool pair_cols =
      packed.kernel == Kernel::kAvx2I16 || packed.kernel == Kernel::kSse2I16;
  if (quad_cols) cols8_scratch.resize(quads * spatial * 4);
  if (pair_cols) cols16_scratch.resize(pairs * spatial * 2);
  [[maybe_unused]] const std::uint8_t* const cols8 = cols8_scratch.data();
  [[maybe_unused]] const std::int16_t* const cols16 = cols16_scratch.data();

  for (int n = 0; n < batch; ++n) {
    const std::int32_t* img = acts.codes.data() + static_cast<std::size_t>(n) * image;
    // Same im2col as the scalar kernel: the SIMD layouts only change
    // the MAC stage. Zero padding is code 0 = activation 0.0.
    tensor::im2col_any(img, geometry, cols_data, exec);
    if (quad_cols) build_quad_cols(cols_data, patch, spatial, cols8_scratch.data(), exec);
    if (pair_cols) build_pair_cols(cols_data, patch, spatial, cols16_scratch.data(), exec);
    float* out_n = out + static_cast<std::size_t>(n) * filters * spatial;
    exec.parallel_for(0, static_cast<std::int64_t>(tiles),
                      [&, out_n](std::int64_t t0, std::int64_t t1) {
      switch (packed.kernel) {
#if CQ_SIMD_X86
        case Kernel::kAvx2I8:
          conv_tiles_avx2_i8(packed, acts.scale, cols8, quads, spatial, out_n, t0, t1);
          return;
        case Kernel::kAvx2I16:
          conv_tiles_avx2_i16(packed, acts.scale, cols16, pairs, spatial, out_n, t0, t1);
          return;
#endif
#if CQ_SIMD_SSE2_BASELINE
        case Kernel::kSse2I16:
          conv_tiles_sse2_i16(packed, acts.scale, cols16, pairs, spatial, out_n, t0, t1);
          return;
#endif
        case Kernel::kGeneric:
          conv_tiles_generic(packed, acts.scale, cols_data, patch, spatial, out_n, t0,
                             t1);
          return;
        default:  // kScalar (refused above) and kernels this build lacks
          return;
      }
    });
  }
}

void linear_forward_into(const PackedSimd& packed, const ActCodes& acts, int batch,
                         int in_features, float* out,
                         std::vector<std::int16_t>& acts16_scratch,
                         std::vector<std::uint8_t>& acts8_scratch,
                         const util::ExecContext& exec) {
  check_runnable(packed, acts, "simd::linear_forward_into");
  if (in_features != packed.weights_per_filter) {
    throw std::invalid_argument("simd::linear_forward_into: in_features mismatch");
  }
  if (acts.codes.size() !=
      static_cast<std::size_t>(batch) * static_cast<std::size_t>(in_features)) {
    throw std::invalid_argument(
        "simd::linear_forward_into: activation code count mismatch");
  }
  const std::size_t features = static_cast<std::size_t>(in_features);
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  const std::size_t tiles = (filters + kFilterTile - 1) / kFilterTile;
  const std::size_t pairs = (features + 1) / 2;
  const std::size_t quads = (features + 3) / 4;

  // The narrowed activation layout the kernel reads, if any; the
  // generic kernel reads the int32 codes themselves.
  if (packed.kernel == Kernel::kAvx2I8) {
    acts8_scratch.resize(static_cast<std::size_t>(batch) * quads * 4);
    build_quad_acts(acts, batch, features, acts8_scratch.data(), exec);
  } else if (packed.kernel == Kernel::kAvx2I16 || packed.kernel == Kernel::kSse2I16) {
    acts16_scratch.resize(static_cast<std::size_t>(batch) * pairs * 2);
    build_pair_acts(acts, batch, features, acts16_scratch.data(), exec);
  }
  [[maybe_unused]] const std::uint8_t* const acts8 = acts8_scratch.data();
  [[maybe_unused]] const std::int16_t* const acts16 = acts16_scratch.data();
  exec.parallel_for(0, static_cast<std::int64_t>(tiles),
                    [&](std::int64_t t0, std::int64_t t1) {
    switch (packed.kernel) {
#if CQ_SIMD_X86
      case Kernel::kAvx2I8:
        linear_tiles_avx2_i8(packed, acts, acts8, batch, quads, out, t0, t1);
        return;
      case Kernel::kAvx2I16:
        linear_tiles_avx2_i16(packed, acts, acts16, batch, pairs, out, t0, t1);
        return;
#endif
#if CQ_SIMD_SSE2_BASELINE
      case Kernel::kSse2I16:
        linear_tiles_sse2_i16(packed, acts, acts16, batch, pairs, out, t0, t1);
        return;
#endif
      case Kernel::kGeneric:
        linear_tiles_generic(packed, acts, batch, features, out, t0, t1);
        return;
      default:  // kScalar (refused above) and kernels this build lacks
        return;
    }
  });
}

}  // namespace simd

void SimdBackend::prepare(const ExecutionPlan& plan) {
  // Each integer layer is packed once, for the widest activation grid
  // among the ops that read it (one op per layer in compiled plans);
  // layers no op reads keep an empty kScalar pack.
  const std::vector<IntegerLayer>& layers = plan.integer_layers();
  std::vector<int> act_bits(layers.size(), 0);
  for (const PlanOp& op : plan.ops()) {
    if (op.kind != OpKind::IntConv && op.kind != OpKind::IntLinear) continue;
    if (op.layer < 0 || static_cast<std::size_t>(op.layer) >= layers.size()) continue;
    int& bits = act_bits[static_cast<std::size_t>(op.layer)];
    bits = std::max(bits, op.act_bits);
  }
  packed_.clear();
  packed_.resize(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (act_bits[i] > 0) packed_[i] = simd::pack_simd(layers[i], tier_, act_bits[i]);
  }
  prepared_for_ = &plan;
}

void SimdBackend::run(const PlanOp& op, const ExecutionPlan& plan,
                      const BackendIo& io, BackendScratch& scratch,
                      const util::ExecContext& exec) const {
  if (op.kind == OpKind::IntConv || op.kind == OpKind::IntLinear) {
    if (prepared_for_ != &plan) {
      throw std::logic_error("SimdBackend: prepare() was not run for this plan");
    }
    const simd::PackedSimd& packed = packed_[static_cast<std::size_t>(op.layer)];
    if (packed.kernel != simd::Kernel::kScalar) {
      const std::size_t in_count =
          op.kind == OpKind::IntConv
              ? plan.slots()[static_cast<std::size_t>(op.in0)].numel *
                    static_cast<std::size_t>(io.batch)
              : static_cast<std::size_t>(op.in_features) *
                    static_cast<std::size_t>(io.batch);
      // Same input adoption as the scalar reference: cast pre-encoded
      // grid codes, encode raw activations.
      if (op.in_codes) {
        cast_codes_into(io.in0, in_count, op.act_hi, op.act_bits, scratch.codes,
                        exec);
      } else {
        encode_activations_into(io.in0, in_count, op.act_hi, op.act_bits,
                                scratch.codes, exec);
      }
      if (op.kind == OpKind::IntConv) {
        simd::conv_forward_into(packed, scratch.codes, io.batch, op.in_c, op.in_h,
                                op.in_w, op.kernel, op.stride, op.pad, io.out,
                                scratch.int_cols, scratch.simd_cols16,
                                scratch.simd_cols8, exec);
      } else {
        simd::linear_forward_into(packed, scratch.codes, io.batch, op.in_features,
                                  io.out, scratch.simd_cols16, scratch.simd_cols8,
                                  exec);
      }
      // The shared epilogue keeps fused tails byte-identical to the
      // scalar reference (and to the unfused plan).
      apply_epilogue(op, io, plan.slots()[static_cast<std::size_t>(op.out)].numel,
                     exec);
      return;
    }
  }
  ScalarBackend::run(op, plan, io, scratch, exec);
}

const char* SimdBackend::dispatch(const PlanOp& op) const {
  if (op.kind != OpKind::IntConv && op.kind != OpKind::IntLinear) return "scalar";
  const auto layer = static_cast<std::size_t>(op.layer);
  if (layer >= packed_.size()) return "scalar";
  return simd::kernel_label(packed_[layer].kernel);
}

std::size_t SimdBackend::prepared_bytes() const {
  std::size_t bytes = 0;
  for (const simd::PackedSimd& packed : packed_) bytes += packed.bytes();
  return bytes;
}

}  // namespace cq::deploy
