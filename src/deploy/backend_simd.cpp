// Explicit-SIMD backend: the integer convolutions and linear layers at
// every tier, and at the tiers with AVX2 the stride-1 float convolution
// (the stem over the raw image), max-pooling and EncodeAct; every other
// op delegates to the scalar reference.
//
// Each integer op adopts its float input in one pass — clamp and exact
// rounding for raw activations, a cast for in_codes inputs — straight
// into one zero-padded, position-major code image, [rows][cols][pixel]
// 32-bit words per sample, whose words hold what the kernel multiplies:
// 4 uint8 codes for the AMX tdpbusd, AVX-VNNI dpbusd and AVX2 maddubs
// kernels, 2 int16 codes for the madd_epi16 / SSE2 pmaddwd kernels, 1
// int32 code for the GCC-vector-extension kernel. A pixel's words hold
// all its channels, so the k pixels one kernel row covers are one
// contiguous run of k x pixel words, and every kernel reads those runs
// in place: no im2col matrix and no intermediate int32 code copy exists
// on this path. A linear op's input is the 1 x 1 image of its features.
//
// The vector kernels are one loop, block_sums, instantiated with each
// tier's MAC policy, so the tiers differ only in the instructions a
// policy supplies. For each word of a run it loads the panel row of 8
// filters' weight words, packed once in prepare(), and multiplies it
// against the broadcast word of each of several columns: 8 output
// positions of one output row (4 on SSE2) for a conv, up to 4 samples
// for a linear op. Conv sums are transposed into the plan's
// filter-major rows before the rescale. Which tier runs is decided by
// runtime CPUID (deploy/cpu_features.h), so one binary serves every
// x86; the SSE2 policy needs no check (the x86-64 psABI mandates SSE2).
//
// The amx tier runs convolutions as AMX tdpbusd tiles instead, each
// one 16 output positions x 16 filters x 64 code bytes, over the same
// image: a tile of 16 positions loads in place at a stride of stride x
// pixel bytes; the B tiles are packed once in prepare() in VNNI order,
// and the int32 C tiles are transposed in ymm registers into the plan's
// filter-major output and rescaled with the scalar expression. tdpbusd
// sums its u8 x s8 products exactly into int32, so the certificate that
// licenses vpdpbusd licenses it too.
//
// Every kernel finishes an output where it rescales it: the op's fused
// epilogue (deploy::Epilogue — BN, residual add, ReLU, grid encode) runs
// in registers before the one store, so each output is written once. The
// AVX2 policies and the amx store share its AVX2 helpers; the SSE2 and
// generic stores and the linear frame apply the reference expression
// lane by lane. EncodeAct runs in one AVX2 pass of quantize_span's
// expression at the tiers with AVX2.
//
// The float conv keeps the scalar reference's arithmetic for each output
// instead of retiling it: a zero-padded, channel-major float image
// replaces the im2col matrix, and one AVX2 loop sums each output's im2col
// rows in ascending order, as `product + acc` with the add pinned in asm
// (never FMA), masking a zero weight's product as gemm skips it, against
// 8-filter float panels packed in prepare(); its sums leave through the
// integer kernels' AVX2 store (bias, then the epilogue). MaxPool is
// maxps(v, best) in the reference's window order.
//
// pack_simd picks each layer's kernel once, at prepare() time, and
// packs only the panels that kernel reads: the kernels and the dispatch
// label switch on the stored choice instead of re-deriving it. Byte
// identity is inherited, not re-argued: encoding uses the scalar
// reference's helper (quant::activation_code), integer accumulation
// below the proven bound is exact in any width and any order (so the
// tap-major reduction order is free; dpbusd sums its four products
// exactly into int32), the maddubs pair bound holds for any pairing of
// codes, the final rescale uses the scalar kernel's exact float
// expressions (multiply then add — never FMA, which rounds
// differently), and the epilogue stages are the reference's
// expressions, vector or scalar, element by element. Anything the
// layouts cannot hold exactly delegates to the scalar reference.

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "deploy/backend.h"
#include "deploy/overflow.h"
#include "quant/uniform.h"

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
    case Kernel::kAmxI8:
      return "simd/amx";
    case Kernel::kVnniI8:
      return "simd/vnni";
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

int codes_per_word(Kernel kernel) {
  switch (kernel) {
    case Kernel::kAmxI8:
    case Kernel::kVnniI8:
    case Kernel::kAvx2I8:
      return 4;
    case Kernel::kAvx2I16:
    case Kernel::kSse2I16:
      return 2;
    case Kernel::kGeneric:
      return 1;
    case Kernel::kScalar:
      break;
  }
  return 0;
}

std::size_t PackedSimd::bytes() const {
  return panels.size() * sizeof(std::uint32_t) + weight_scales.size() * sizeof(float) +
         out_bias.size() * sizeof(float);
}

namespace {

/// The kernel choice, made in this one place. Each predicate is a
/// deploy/overflow.h helper verify_plan also calls, so the verifier's
/// certificate and the kernel that runs cannot disagree.
Kernel select_kernel(const IntegerLayer& layer, SimdTier tier, int act_bits, OpShape shape,
                     std::int32_t max_abs_weight) {
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
  // generic kernels read whole int32 codes.
  if (act_bits > 15) return Kernel::kGeneric;
#if CQ_SIMD_X86
  const std::int64_t terms = layer.weights_per_filter;
  if (tier >= SimdTier::kVnni && int_reduction_fits_int8_dot(max_abs_weight, act_bits, terms)) {
    return tier == SimdTier::kAmx && shape.is_conv ? Kernel::kAmxI8 : Kernel::kVnniI8;
  }
  if (tier >= SimdTier::kAvx2) {
    return int_reduction_fits_int8_madd(max_abs_weight, act_bits, terms) ? Kernel::kAvx2I8
                                                                         : Kernel::kAvx2I16;
  }
#endif
#if CQ_SIMD_SSE2_BASELINE
  return Kernel::kSse2I16;
#else
  return Kernel::kGeneric;
#endif
}

/// Channel groups of `channels` codes at `g` codes per word.
std::size_t groups_of(int channels, int g) {
  return (static_cast<std::size_t>(channels) + static_cast<std::size_t>(g) - 1) /
         static_cast<std::size_t>(g);
}

/// Runs body(std::integral_constant<int, g>) for g codes per word, so
/// the lane arithmetic of the panel packer and the encoders compiles to
/// shifts.
template <typename Body>
void with_codes_per_word(int g, Body&& body) {
  switch (g) {
    case 4:
      body(std::integral_constant<int, 4>{});
      return;
    case 2:
      body(std::integral_constant<int, 2>{});
      return;
    default:
      body(std::integral_constant<int, 1>{});
      return;
  }
}

/// Writes the layer's centered doubled codes into zeroed tap-major
/// panels of G-code words. Channel c's code is lane c % G of its word:
/// an int8, int16 or int32 at byte c % G * sizeof(Lane), the
/// little-endian lane order the multiply-add instructions read.
template <int G>
void pack_panels(const IntegerLayer& layer, std::size_t taps, std::size_t channels,
                 std::uint32_t* panels) {
  using Lane = std::conditional_t<G == 4, std::int8_t,
                                  std::conditional_t<G == 2, std::int16_t, std::int32_t>>;
  constexpr std::size_t kWordBytes = sizeof(std::uint32_t);
  const std::size_t groups = groups_of(static_cast<int>(channels), G);
  const std::size_t tap_stride = groups * kFilterTile * kWordBytes;
  const std::size_t tile_bytes = taps * tap_stride;
  auto* const bytes = reinterpret_cast<unsigned char*>(panels);
  const auto filters = static_cast<std::size_t>(layer.num_filters);
  FilterRows rows(layer);
  std::vector<std::int32_t> row(taps * channels);
  for (std::size_t k = 0; k < filters; ++k) {
    rows.read(row);
    const int b = layer.filter_bits[k];
    if (b == 0) continue;
    const std::int32_t offset = static_cast<std::int32_t>(quant::levels_for_bits(b)) - 1;
    unsigned char* const lane =
        bytes + k / kFilterTile * tile_bytes + k % kFilterTile * kWordBytes;
    // Reduction index j = c * taps + tap: the im2col row order of the
    // scalar kernel and of every decoded filter row.
    for (std::size_t t = 0; t < taps; ++t) {
      unsigned char* const tap_lane = lane + t * tap_stride;
      for (std::size_t c = 0; c < channels; ++c) {
        const auto centered = static_cast<Lane>(2 * row[c * taps + t] - offset);
        std::memcpy(tap_lane + c / G * kFilterTile * kWordBytes + c % G * sizeof(Lane),
                    &centered, sizeof(centered));
      }
    }
  }
}

/// Filters per B tile (16 int32 columns of a C tile), output positions
/// per A tile (16 rows), and the bytes of one tile row.
inline constexpr int kTileFilters = 16;
inline constexpr int kTileRows = 16;
inline constexpr int kTileRowBytes = 64;

/// One kernel row of the amx layout: `pixel` bytes per image pixel (the
/// channels rounded up to whole words, so every pixel is word aligned),
/// and the run of kernel x pixel bytes one output position reads per
/// kernel row, split into `chunks` equal K-chunks of `chunk` bytes, a
/// multiple of 4 and at most 64. Runs of 48, 96 and 192 bytes (the
/// paper's 3x3 convs over 16, 32 and 64 channels) split without padding.
struct TileRun {
  TileRun(int channels, int kernel)
      : pixel((static_cast<std::size_t>(channels) + 3) / 4 * 4),
        chunks((static_cast<std::size_t>(kernel) * pixel + kTileRowBytes - 1) /
               kTileRowBytes),
        chunk(((static_cast<std::size_t>(kernel) * pixel + chunks - 1) / chunks + 3) / 4 * 4) {}
  std::size_t bytes() const { return chunks * chunk; }  ///< panel bytes per kernel row

  std::size_t pixel, chunks, chunk;
};

/// Writes the layer's centered doubled codes as int8 into zeroed amx
/// panels, [16-filter block][ky][run / 4 rows][16 filters][4 bytes]:
/// run byte o = kx * pixel + c is byte o % 4 of its filter's word in row
/// o / 4. One pass per decoded row, stepping through (kx, c) in order.
void pack_tile_panels(const IntegerLayer& layer, int kernel, std::size_t channels,
                      const TileRun& run, std::uint32_t* panels) {
  const std::size_t ky_stride = run.bytes() * kTileFilters;
  const std::size_t block_stride = static_cast<std::size_t>(kernel) * ky_stride;
  const auto taps = static_cast<std::size_t>(kernel) * static_cast<std::size_t>(kernel);
  auto* const bytes = reinterpret_cast<unsigned char*>(panels);
  FilterRows rows(layer);
  std::vector<std::int32_t> row(static_cast<std::size_t>(layer.weights_per_filter));
  for (std::size_t k = 0; k < static_cast<std::size_t>(layer.num_filters); ++k) {
    rows.read(row);
    const int b = layer.filter_bits[k];
    if (b == 0) continue;
    const std::int32_t offset = static_cast<std::int32_t>(quant::levels_for_bits(b)) - 1;
    unsigned char* const filter =
        bytes + k / kTileFilters * block_stride + k % kTileFilters * sizeof(std::uint32_t);
    // Decoded rows index weight (c, ky, kx) at c * taps + ky * kernel + kx.
    for (int ky = 0; ky < kernel; ++ky) {
      unsigned char* const dst = filter + static_cast<std::size_t>(ky) * ky_stride;
      for (int kx = 0; kx < kernel; ++kx) {
        const std::int32_t* src = row.data() + ky * kernel + kx;
        for (std::size_t c = 0, o = static_cast<std::size_t>(kx) * run.pixel; c < channels;
             ++c, ++o, src += taps) {
          dst[o / 4 * kTileRowBytes + o % 4] =
              static_cast<unsigned char>(static_cast<std::int8_t>(2 * *src - offset));
        }
      }
    }
  }
}

}  // namespace

PackedSimd pack_simd(const IntegerLayer& layer, SimdTier tier, int act_bits, OpShape shape) {
  const int kernel = shape.kernel;
  const std::int64_t taps = static_cast<std::int64_t>(kernel) * kernel;
  if (kernel < 1 || layer.weights_per_filter % taps != 0) {
    throw std::invalid_argument("simd::pack_simd: " +
                                std::to_string(layer.weights_per_filter) +
                                " weights per filter are not whole " +
                                std::to_string(kernel) + "x" + std::to_string(kernel) +
                                " taps");
  }
  PackedSimd packed;
  packed.act_bits = act_bits;
  packed.num_filters = layer.num_filters;
  packed.weights_per_filter = layer.weights_per_filter;
  packed.taps = static_cast<int>(taps);
  packed.channels = static_cast<int>(layer.weights_per_filter / taps);
  // The shared overflow-bound helper scans the same codes the panels
  // hold, so the kernel choice and verify_plan's certificate start
  // from the same number.
  packed.max_abs_weight = max_abs_centered_code(layer);
  packed.kernel = select_kernel(layer, tier, act_bits, shape, packed.max_abs_weight);
  if (packed.kernel == Kernel::kScalar) return packed;

  const int g = codes_per_word(packed.kernel);
  const auto tap_count = static_cast<std::size_t>(taps);
  const auto channels = static_cast<std::size_t>(packed.channels);
  const auto filters = static_cast<std::size_t>(layer.num_filters);
  if (packed.kernel == Kernel::kAmxI8) {
    const TileRun run(packed.channels, kernel);
    packed.panels.assign((filters + kTileFilters - 1) / kTileFilters *
                             static_cast<std::size_t>(kernel) * run.bytes() / 4 * kTileFilters,
                         0u);
    pack_tile_panels(layer, kernel, channels, run, packed.panels.data());
  } else {
    packed.panels.assign((filters + kFilterTile - 1) / kFilterTile * tap_count *
                             groups_of(packed.channels, g) * kFilterTile,
                         0u);
    with_codes_per_word(g, [&](auto group) {
      pack_panels<decltype(group)::value>(layer, tap_count, channels, packed.panels.data());
    });
  }
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
/// accumulators, amortizing the weight traffic over the batch. Smaller
/// blocks use the spare accumulators as extra chains (block_sums).
inline constexpr int kBatchBlock = 4;
static_assert(kBatchBlock == 4, "linear_tiles dispatches blocks of 1 to 4 samples");

/// The kernels' entry check, returning the grid's activation scale
/// (the expression encode_activations_into / cast_codes_into store).
/// The pack must carry panels, and the grid must be no wider than the
/// one the kernel choice was certified for (a narrower grid only
/// shrinks the overflow bound).
float check_runnable(const PackedSimd& packed, ActGrid grid, const char* kernel) {
  if (packed.kernel == Kernel::kScalar) {
    throw std::logic_error(std::string(kernel) +
                           ": layer has no SIMD panels (delegate to the scalar kernels)");
  }
  if (grid.bits < 1 || grid.bits > 16) {
    throw std::invalid_argument(std::string(kernel) + ": bits must be in [1, 16]");
  }
  if (!(grid.hi > 0.0f)) {
    throw std::invalid_argument(std::string(kernel) +
                                ": activation range must be positive");
  }
  if (grid.bits > packed.act_bits) {
    throw std::logic_error(std::string(kernel) + ": " + std::to_string(grid.bits) +
                           "-bit activation codes exceed the " +
                           std::to_string(packed.act_bits) +
                           "-bit grid the layer was packed for");
  }
  return grid.hi / static_cast<float>(quant::levels_for_bits(grid.bits) - 1);
}

/// The code image every kernel reads: per sample, [height + 2 pad]
/// [width + 2 pad][pixel] words with zero borders, pixel = ceil(channels
/// / g) words at g codes per word. Output position (oy, ox) reads, for
/// kernel row ky, the run of kernel x pixel words starting ky rows below
/// at(oy, ox); word q of that run is word q % pixel of input pixel
/// (oy * stride + ky, ox * stride + q / pixel), the order of the vector
/// panel rows of that kernel row. A linear op's features are the one
/// pixel of a 1 x 1 image.
///
/// The amx frame reads the same image (g = 4) as bytes: the A tile of
/// the m output positions ox0 .. ox0 + m - 1 of output row oy reads, for
/// kernel row ky and K-chunk j of `run`, `chunk` bytes per row from
/// a_tile(oy, ox0, ky, j) on, its rows a_stride() bytes apart. The last
/// K-chunk of a run may read up to 63 bytes past it (into the next
/// pixels, against zero weights), so kSlack zero words follow the last
/// sample.
struct ImageGeometry {
  ImageGeometry(int g, int channels, int height, int width, int kernel, int stride, int pad)
      : run(channels, kernel),
        kernel(kernel),
        stride(stride),
        pad(pad),
        oh((height + 2 * pad - kernel) / stride + 1),
        ow((width + 2 * pad - kernel) / stride + 1),
        m(std::min(kTileRows, ow)),
        pixel(groups_of(channels, g)),
        row(static_cast<std::size_t>(width + 2 * pad) * pixel),
        sample(static_cast<std::size_t>(height + 2 * pad) * row) {}

  static constexpr std::size_t kSlack = kTileRowBytes / sizeof(std::uint32_t);

  /// Word offset of the first word output position (oy, ox) reads.
  std::size_t at(int oy, int ox) const {
    return static_cast<std::size_t>(oy * stride) * row +
           static_cast<std::size_t>(ox) * static_cast<std::size_t>(stride) * pixel;
  }
  /// Words of a batch's image, slack included.
  std::size_t words(int batch) const { return static_cast<std::size_t>(batch) * sample + kSlack; }

  std::size_t a_stride() const {
    return static_cast<std::size_t>(stride) * pixel * sizeof(std::uint32_t);
  }
  /// Segments of m positions that cover one output row.
  int segments_per_row() const { return (ow + m - 1) / m; }
  std::size_t a_tile(int oy, int ox0, int ky, std::size_t j) const {
    return (at(oy, ox0) + static_cast<std::size_t>(ky) * row) * sizeof(std::uint32_t) +
           j * run.chunk;
  }

  TileRun run;  ///< the amx K-chunks of one kernel row
  int kernel, stride, pad, oh, ow;
  int m;  ///< amx A-tile rows
  std::size_t pixel, row, sample;
};

// ---------------------------------------------------------------------------
// Activation adoption: float activations -> code image words.
// ---------------------------------------------------------------------------

#if CQ_SIMD_X86

/// The first n epi32 lanes set.
__attribute__((target("avx2"))) __m256i first_lanes(int n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(n), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Transposes the 8x8 words v[row] lane by lane, in place.
__attribute__((target("avx2"))) void transpose8(__m256i (&v)[8]) {
  __m256i t[8], u[8];
  for (int i = 0; i < 8; i += 2) {
    t[i] = _mm256_unpacklo_epi32(v[i], v[i + 1]);
    t[i + 1] = _mm256_unpackhi_epi32(v[i], v[i + 1]);
  }
  for (int i = 0; i < 8; i += 4) {
    u[i] = _mm256_unpacklo_epi64(t[i], t[i + 2]);
    u[i + 1] = _mm256_unpackhi_epi64(t[i], t[i + 2]);
    u[i + 2] = _mm256_unpacklo_epi64(t[i + 1], t[i + 3]);
    u[i + 3] = _mm256_unpackhi_epi64(t[i + 1], t[i + 3]);
  }
  for (int i = 0; i < 4; ++i) {
    v[i] = _mm256_permute2x128_si256(u[i], u[i + 4], 0x20);
    v[i + 4] = _mm256_permute2x128_si256(u[i], u[i + 4], 0x31);
  }
}

#endif  // CQ_SIMD_X86

/// Codes of raw activations: clamp to [0, hi] (NaN -> 0) and round onto
/// the grid — encode_activations_into's arithmetic, via the same helper.
struct EncodeRaw {
  float hi = 0.0f;
  float to_code = 0.0f;
  std::uint32_t operator()(float v) const {
    return static_cast<std::uint32_t>(quant::activation_code(v, hi, to_code));
  }
#if CQ_SIMD_X86
  /// The same clip, scale and round_code on 8 lanes, in the same float
  /// operations: cvttps2dq is round_code's truncating cast, and a lane
  /// whose fraction reaches 0.5 subtracts its all-ones compare mask.
  __attribute__((target("avx2"))) __m256i operator()(const __m256& v) const {
    const __m256 clipped = _mm256_and_ps(_mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ),
                                         _mm256_min_ps(v, _mm256_set1_ps(hi)));
    const __m256 x = _mm256_mul_ps(clipped, _mm256_set1_ps(to_code));
    const __m256i t = _mm256_cvttps_epi32(x);
    const __m256 frac = _mm256_sub_ps(x, _mm256_cvtepi32_ps(t));
    return _mm256_sub_epi32(
        t, _mm256_castps_si256(_mm256_cmp_ps(frac, _mm256_set1_ps(0.5f), _CMP_GE_OQ)));
  }
#endif
};

/// Codes of in_codes activations, which already are grid codes stored
/// as floats: cast_codes_into's cast.
struct CastCodes {
  std::uint32_t operator()(float v) const {
    return static_cast<std::uint32_t>(static_cast<std::int32_t>(v));
  }
#if CQ_SIMD_X86
  __attribute__((target("avx2"))) __m256i operator()(const __m256& v) const {
    return _mm256_cvttps_epi32(v);
  }
#endif
};

/// An output position and, with ep_add, the residual element beside it
/// (null without ep_add); they advance together.
struct OutAt {
  float* out;
  const float* residual;
  OutAt operator+(std::size_t offset) const {
    return {out + offset, residual != nullptr ? residual + offset : nullptr};
  }
};

/// The scalar stores' finish: `lanes` rescaled values through the
/// epilogue's reference expression, value i of channel c + i * step (a
/// conv store's lanes share one channel, a linear row's are consecutive
/// features).
void store_finished(OutAt at, const float* values, const Epilogue& ep, std::size_t c,
                    std::size_t step, std::size_t lanes) {
  for (std::size_t i = 0; i < lanes; ++i) {
    at.out[i] = ep(values[i], c + i * step, (at + i).residual);
  }
}

#if CQ_SIMD_X86

// The vector stores' epilogue, shared by the AVX2 policies and the amx
// store, in the reference's float operations (multiply, then add: never
// FMA). The amx store applies BN to rows of 8 filters before its
// transposes, the AVX2 stores to one filter's 8 positions after theirs;
// both finish through store_tail. The conv frames are instantiated per
// set of post-BN stages (Epilogue::with_tail_stages), so their store
// loops branch on none of them, and each works on its own copy of the
// Epilogue, so the grid constants stay in registers.

/// BatchNorm on 8 lanes: (v - mean) * inv_std, then gamma * xh + beta.
__attribute__((target("avx2"))) __m256 batch_norm_avx2(__m256 v, __m256 mean, __m256 inv_std,
                                                       __m256 gamma, __m256 beta) {
  const __m256 xh = _mm256_mul_ps(_mm256_sub_ps(v, mean), inv_std);
  return _mm256_add_ps(_mm256_mul_ps(gamma, xh), beta);
}

/// add_keeping_nan on 8 lanes: v + x, x masked to +0.0 where v is NaN.
__attribute__((target("avx2"))) __m256 add_keeping_nan_avx2(const __m256& v, const __m256& x) {
  return _mm256_add_ps(v, _mm256_and_ps(_mm256_cmp_ps(v, v, _CMP_ORD_Q), x));
}

/// The post-BN stages of `Stages` on 8 lanes of one channel's consecutive
/// outputs, then the store of the first `lanes`: the residual added from
/// only the lanes stored (add_keeping_nan), ReLU as a compare mask (NaN
/// and -0.0 give +0.0, as `v > 0 ? v : 0` does), and the encode through
/// EncodeRaw's vector code.
template <typename Stages>
__attribute__((target("avx2"))) void store_tail(OutAt at, const __m256& finished,
                                                const Epilogue& ep, int lanes) {
  const bool full = lanes == 8;
  __m256 v = finished;
  if constexpr (Stages::add) {
    const __m256 residual = full ? _mm256_loadu_ps(at.residual)
                                 : _mm256_maskload_ps(at.residual, first_lanes(lanes));
    v = add_keeping_nan_avx2(v, residual);
  }
  if constexpr (Stages::relu) {
    v = _mm256_and_ps(_mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GT_OQ), v);
  }
  if constexpr (Stages::encode) v = _mm256_cvtepi32_ps(EncodeRaw{ep.out_hi, ep.to_code}(v));
  if (full) {
    _mm256_storeu_ps(at.out, v);
  } else {
    _mm256_maskstore_ps(at.out, first_lanes(lanes), v);
  }
}

/// The finish of a store whose 8 lanes are consecutive outputs of channel
/// c: BN with the channel's broadcast constants when the epilogue has it,
/// then store_tail.
template <typename Stages>
__attribute__((target("avx2"))) void store_channel(OutAt at, const __m256& v, const Epilogue& ep,
                                                   std::size_t c, int lanes) {
  if (!ep.bn) {
    store_tail<Stages>(at, v, ep, lanes);
    return;
  }
  store_tail<Stages>(at,
                     batch_norm_avx2(v, _mm256_set1_ps(ep.mean[c]), _mm256_set1_ps(ep.inv_std[c]),
                                     _mm256_set1_ps(ep.gamma[c]), _mm256_set1_ps(ep.beta[c])),
                     ep, lanes);
}

/// EncodeAct in one AVX2 pass of quantize_span's expression on [0, hi]:
/// EncodeRaw's vector code, then + (xc - xc) with xc the clamp of x
/// (NaN stays NaN, so a NaN input comes out as the scalar pass leaves
/// it), then * inv_scale + lo; quantize_span itself takes the last
/// count % 8 elements and any grid it refuses. `dst` may alias `src`.
__attribute__((target("avx2"))) void encode_act_avx2(const float* src, float* dst,
                                                     std::size_t count, float hi, int bits) {
  const quant::UniformRange range{0.0f, hi};
  std::size_t i = 0;
  if (bits > 0 && range.valid()) {
    const auto steps = static_cast<float>(quant::levels_for_bits(bits) - 1);
    const EncodeRaw code{hi, steps / (range.hi - range.lo)};
    const __m256 lo = _mm256_set1_ps(range.lo);
    const __m256 top = _mm256_set1_ps(range.hi);
    const __m256 inv_scale = _mm256_set1_ps((range.hi - range.lo) / steps);
    for (; i + 8 <= count; i += 8) {
      const __m256 x = _mm256_loadu_ps(src + i);
      // std::min(std::max(x, lo), hi): maxps / minps return their second
      // operand when either is NaN.
      const __m256 xc = _mm256_min_ps(top, _mm256_max_ps(lo, x));
      const __m256 q = _mm256_add_ps(_mm256_cvtepi32_ps(code(x)), _mm256_sub_ps(xc, xc));
      _mm256_storeu_ps(dst + i, _mm256_add_ps(_mm256_mul_ps(q, inv_scale), lo));
    }
  }
  quant::quantize_span({src + i, count - i}, {dst + i, count - i}, range, bits);
}

#endif  // CQ_SIMD_X86

/// Runs body(code) with the adoption functor for `grid`.
template <typename Body>
void with_adoption(ActGrid grid, Body&& body) {
  if (grid.in_codes) {
    body(CastCodes{});
  } else {
    const float to_code =
        static_cast<float>(quant::levels_for_bits(grid.bits) - 1) / grid.hi;
    body(EncodeRaw{grid.hi, to_code});
  }
}

/// Writes one pixel's ceil(channels / G) words: word i packs the codes
/// of channels i * G .. i * G + G - 1, read from src[c * cstride], into
/// its lanes, channel c in lane c % G — the little-endian lane order the
/// multiply-add instructions read. Lanes past `channels` stay zero: tail
/// channels are code 0, activation 0.0.
template <int G, typename Code>
void pack_words(const float* src, std::size_t cstride, int channels, std::uint32_t* dst,
                Code code) {
  constexpr int kWidth = 32 / G;
  const int full = channels / G;
  for (int i = 0; i < full; ++i) {
    std::uint32_t word = 0;
    for (int c = 0; c < G; ++c) {
      word |= code(src[static_cast<std::size_t>(i * G + c) * cstride]) << (c * kWidth);
    }
    dst[i] = word;
  }
  if (full * G < channels) {
    std::uint32_t word = 0;
    for (int c = full * G; c < channels; ++c) {
      word |= code(src[static_cast<std::size_t>(c) * cstride]) << ((c - full * G) * kWidth);
    }
    dst[full] = word;
  }
}

/// Adopts one sample's [channels][height][width] activations into its
/// image pixel by pixel, in plain C++: the encoder of the SSE2 and
/// generic kernels and of every linear op.
template <int G, typename Code>
void encode_sample(const float* src, int channels, int height, int width,
                   const ImageGeometry& geo, std::uint32_t* image, Code code) {
  const auto hw = static_cast<std::size_t>(height) * static_cast<std::size_t>(width);
  if (hw == 1 && geo.pad == 0) {  // a linear op's row: unit stride, which vectorizes
    pack_words<G>(src, 1, channels, image, code);
    return;
  }
  for (int y = 0; y < height; ++y) {
    std::uint32_t* dst = image + static_cast<std::size_t>(y + geo.pad) * geo.row +
                         static_cast<std::size_t>(geo.pad) * geo.pixel;
    for (int x = 0; x < width; ++x, dst += geo.pixel) {
      pack_words<G>(src + static_cast<std::size_t>(y) * width + x, hw, channels, dst, code);
    }
  }
}

#if CQ_SIMD_X86

/// The same adoption in one AVX2 pass, for the avx2-, vnni- and amx-tier
/// kernels: per input row and 8 pixels at a time, build each word from G
/// channels' codes (pack_words's lane order) and transpose 8 words x 8
/// pixels so each pixel's words are stored together.
template <int G, typename Code>
__attribute__((target("avx2"))) void encode_sample_avx2(const float* src, int channels,
                                                        int height, int width,
                                                        const ImageGeometry& geo,
                                                        std::uint32_t* image, Code code) {
  constexpr int kWidth = 32 / G;
  const auto hw = static_cast<std::size_t>(height) * static_cast<std::size_t>(width);
  const int words = static_cast<int>(geo.pixel);
  for (int y = 0; y < height; ++y) {
    std::uint32_t* const row = image + static_cast<std::size_t>(y + geo.pad) * geo.row +
                               static_cast<std::size_t>(geo.pad) * geo.pixel;
    for (int x = 0; x < width; x += 8) {
      const int n = std::min(8, width - x);
      const __m256i pixels = first_lanes(n);
      const float* const at = src + static_cast<std::size_t>(y) * width + x;
      for (int w0 = 0; w0 < words; w0 += 8) {
        __m256i v[8];
        for (int w = 0; w < 8; ++w) {
          v[w] = _mm256_setzero_si256();
          for (int i = 0, c = (w0 + w) * G; i < G && c < channels; ++i, ++c) {
            const float* const p = at + static_cast<std::size_t>(c) * hw;
            const __m256 a = n == 8 ? _mm256_loadu_ps(p) : _mm256_maskload_ps(p, pixels);
            v[w] = _mm256_or_si256(v[w], _mm256_slli_epi32(code(a), kWidth * i));
          }
        }
        transpose8(v);
        const __m256i keep = first_lanes(words - w0);
        for (int p = 0; p < n; ++p) {
          _mm256_maskstore_epi32(
              reinterpret_cast<int*>(row + static_cast<std::size_t>(x + p) * geo.pixel + w0),
              keep, v[p]);
        }
      }
    }
  }
}

#endif  // CQ_SIMD_X86

/// Adopts [batch][channels][height][width] float activations into the
/// batch's image for `kernel`, one sample per task, and zeroes the
/// border and the slack. Both encoders write every word of every input
/// pixel.
void adopt_image(const float* acts, ActGrid grid, int batch, int channels, int height,
                 int width, Kernel kernel, const ImageGeometry& geo, std::uint32_t* image,
                 const util::ExecContext& exec) {
  const auto hw = static_cast<std::size_t>(height) * static_cast<std::size_t>(width);
  const std::size_t per_sample = static_cast<std::size_t>(channels) * hw;
  // Every kernel but SSE2's and the generic one runs at a tier with AVX2;
  // a single pixel (a linear op's features) packs faster in plain C++.
  const bool avx2 = hw > 1 && kernel != Kernel::kSse2I16 && kernel != Kernel::kGeneric;
  std::fill(image + static_cast<std::size_t>(batch) * geo.sample, image + geo.words(batch), 0u);
  with_codes_per_word(codes_per_word(kernel), [&](auto group) {
    constexpr int G = decltype(group)::value;
    with_adoption(grid, [&](auto code) {
      exec.capped(static_cast<std::int64_t>(per_sample) * batch / kMinElementsPerThread)
          .parallel_for(0, batch, [&](std::int64_t lo, std::int64_t hi) {
            for (std::int64_t n = lo; n < hi; ++n) {
              const float* const src = acts + static_cast<std::size_t>(n) * per_sample;
              std::uint32_t* const dst = image + static_cast<std::size_t>(n) * geo.sample;
              if (geo.pad > 0) std::fill(dst, dst + geo.sample, 0u);  // the border
#if CQ_SIMD_X86
              if (G > 1 && avx2) {
                encode_sample_avx2<G>(src, channels, height, width, geo, dst, code);
                continue;
              }
#endif
              encode_sample<G>(src, channels, height, width, geo, dst, code);
            }
          });
    });
  });
}

// ---------------------------------------------------------------------------
// MAC kernels: one loop (block_sums) behind a conv frame (conv_block) and
// a linear frame (linear_tiles), each a template over a MAC policy. A
// policy supplies only what differs between tiers: its vector type, its
// int32 lane count kLanes, and zero / load / splat / mac (multiply-add)
// / add / transpose (kLanes x kLanes lanes) / store<Stages> (rescale,
// finish with the epilogue and store the first lanes; kStagedStore says
// whether it uses Stages or the runtime Epilogue) / finish_row (a linear
// row's rescaled outputs through the epilogue) / spill (copy out the
// int32 lanes). Vectors pass by
// reference, never by value: a by-value AVX vector in a baseline-ISA
// template instance would change the psABI (-Wpsabi).
// ---------------------------------------------------------------------------

/// Kernel::kGeneric: GNU C vector extensions at the build's baseline
/// ISA over whole int32 codes, legal wherever the binary runs. On x86-64
/// the portable tier runs Sse2PairMac instead; this remains the policy
/// for non-x86 builds and for 16-bit activation codes, which don't fit
/// int16 lanes.
struct GenericMac {
  typedef std::int32_t Vec __attribute__((vector_size(32), aligned(4)));
  typedef float VecF __attribute__((vector_size(32), aligned(4)));
  static constexpr int kLanes = 8;
  static constexpr bool kStagedStore = false;
  static void zero(Vec& v) { v = Vec{}; }
  static void load(Vec& v, const std::uint32_t* p) { std::memcpy(&v, p, sizeof(v)); }
  static void splat(Vec& v, std::uint32_t word) { v = Vec{} + static_cast<std::int32_t>(word); }
  static void mac(Vec& acc, const Vec& a, const Vec& w) { acc += a * w; }
  static void add(Vec& acc, const Vec& v) { acc += v; }
  /// Through a spill: no shuffle is portable across vector ISAs.
  static void transpose(Vec (&v)[kLanes]) {
    std::int32_t t[kLanes][kLanes];
    for (int r = 0; r < kLanes; ++r) {
      for (int c = 0; c < kLanes; ++c) t[c][r] = v[r][c];
    }
    std::memcpy(v, t, sizeof(t));
  }
  template <typename Stages>
  static void store(OutAt at, const Vec& acc, float scale, float bias, const Epilogue& ep,
                    std::size_t c, std::size_t lanes) {
    const VecF o = __builtin_convertvector(acc, VecF) * scale + bias;
    float values[kLanes];
    std::memcpy(values, &o, sizeof(values));
    store_finished(at, values, ep, c, 0, lanes);
  }
  static void finish_row(OutAt at, const float* values, const Epilogue& ep, std::size_t c0,
                         int lanes) {
    store_finished(at, values, ep, c0, 1, static_cast<std::size_t>(lanes));
  }
  static void spill(std::int32_t* dst, const Vec& acc) { std::memcpy(dst, &acc, sizeof(acc)); }
};

#if CQ_SIMD_SSE2_BASELINE

/// Kernel::kSse2I16, the portable tier on x86-64: one pmaddwd per int16
/// code-pair word, 4 lanes. pmaddwd is baseline (the x86-64 psABI
/// mandates SSE2), so this runs on every CPU the binary runs on.
struct Sse2PairMac {
  using Vec = __m128i;
  static constexpr int kLanes = 4;
  static constexpr bool kStagedStore = false;
  static void zero(Vec& v) { v = _mm_setzero_si128(); }
  static void load(Vec& v, const std::uint32_t* p) {
    v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  static void splat(Vec& v, std::uint32_t word) {
    v = _mm_set1_epi32(static_cast<std::int32_t>(word));
  }
  static void mac(Vec& acc, const Vec& a, const Vec& w) {
    acc = _mm_add_epi32(acc, _mm_madd_epi16(a, w));
  }
  static void add(Vec& acc, const Vec& v) { acc = _mm_add_epi32(acc, v); }
  static void transpose(Vec (&v)[kLanes]) {
    const __m128i t0 = _mm_unpacklo_epi32(v[0], v[1]), t1 = _mm_unpackhi_epi32(v[0], v[1]);
    const __m128i t2 = _mm_unpacklo_epi32(v[2], v[3]), t3 = _mm_unpackhi_epi32(v[2], v[3]);
    v[0] = _mm_unpacklo_epi64(t0, t2);
    v[1] = _mm_unpackhi_epi64(t0, t2);
    v[2] = _mm_unpacklo_epi64(t1, t3);
    v[3] = _mm_unpackhi_epi64(t1, t3);
  }
  template <typename Stages>
  static void store(OutAt at, const Vec& acc, float scale, float bias, const Epilogue& ep,
                    std::size_t c, std::size_t lanes) {
    const __m128 o =
        _mm_add_ps(_mm_mul_ps(_mm_cvtepi32_ps(acc), _mm_set1_ps(scale)), _mm_set1_ps(bias));
    if (lanes == kLanes && ep.empty()) {
      _mm_storeu_ps(at.out, o);
      return;
    }
    float values[kLanes];
    _mm_storeu_ps(values, o);
    store_finished(at, values, ep, c, 0, lanes);
  }
  static void finish_row(OutAt at, const float* values, const Epilogue& ep, std::size_t c0,
                         int lanes) {
    store_finished(at, values, ep, c0, 1, static_cast<std::size_t>(lanes));
  }
  static void spill(std::int32_t* dst, const Vec& acc) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst), acc);
  }
};

#endif  // CQ_SIMD_SSE2_BASELINE

#if CQ_SIMD_X86

// AVX2 and VNNI tiers: the policy members carry the `target`
// attribute, so the translation unit builds at the baseline ISA, and
// they run only inside run_avx2's or run_vnni's frame after runtime
// CPUID proved the ISA (deploy/cpu_features.h). No FMA anywhere on
// these paths: the rescale is cvtepi32_ps, mul_ps, add_ps —
// bit-identical to the scalar expression's two roundings — and the
// epilogue multiplies, then adds, likewise.

/// Kernel::kAvx2I16: one madd_epi16 per int16 code-pair word.
struct Avx2PairMac {
  using Vec = __m256i;
  static constexpr int kLanes = 8;
  static constexpr bool kStagedStore = true;
  __attribute__((target("avx2"))) static void zero(Vec& v) { v = _mm256_setzero_si256(); }
  __attribute__((target("avx2"))) static void load(Vec& v, const std::uint32_t* p) {
    v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  __attribute__((target("avx2"))) static void splat(Vec& v, std::uint32_t word) {
    v = _mm256_set1_epi32(static_cast<std::int32_t>(word));
  }
  __attribute__((target("avx2"))) static void mac(Vec& acc, const Vec& a, const Vec& w) {
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(a, w));
  }
  __attribute__((target("avx2"))) static void add(Vec& acc, const Vec& v) {
    acc = _mm256_add_epi32(acc, v);
  }
  __attribute__((target("avx2"))) static void transpose(Vec (&v)[kLanes]) { transpose8(v); }
  template <typename Stages>
  __attribute__((target("avx2"))) static void store(OutAt at, const Vec& acc, float scale,
                                                    float bias, const Epilogue& ep,
                                                    std::size_t c, std::size_t lanes) {
    store_channel<Stages>(
        at,
        _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(acc), _mm256_set1_ps(scale)),
                      _mm256_set1_ps(bias)),
        ep, c, static_cast<int>(lanes));
  }
  /// A linear row's `lanes` rescaled outputs, features c0 .. c0 + lanes
  /// - 1, finished in one vector (BN constants and residual read only
  /// for those lanes).
  __attribute__((target("avx2"))) static void finish_row(OutAt at, const float* values,
                                                         const Epilogue& ep, std::size_t c0,
                                                         int lanes) {
    const __m256i keep = first_lanes(lanes);
    __m256 v = _mm256_maskload_ps(values, keep);
    if (ep.bn) {
      v = batch_norm_avx2(v, _mm256_maskload_ps(ep.mean + c0, keep),
                          _mm256_maskload_ps(ep.inv_std + c0, keep),
                          _mm256_maskload_ps(ep.gamma + c0, keep),
                          _mm256_maskload_ps(ep.beta + c0, keep));
    }
    ep.with_tail_stages([&](auto stages) { store_tail<decltype(stages)>(at, v, ep, lanes); });
  }
  __attribute__((target("avx2"))) static void spill(std::int32_t* dst, const Vec& acc) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst), acc);
  }
};

/// Kernel::kAvx2I8: maddubs_epi16 forms the two adjacent-pair sums of
/// each uint8 x int8 code quad (proven below int16 saturation by
/// int_reduction_fits_int8_madd, for any pairing), and madd_epi16
/// against 1 widens and adds them. `a` (the activations) is the
/// unsigned operand.
struct Avx2QuadMac : Avx2PairMac {
  __attribute__((target("avx2"))) static void mac(Vec& acc, const Vec& a, const Vec& w) {
    acc = _mm256_add_epi32(
        acc, _mm256_madd_epi16(_mm256_maddubs_epi16(a, w), _mm256_set1_epi16(1)));
  }
};

/// Kernel::kVnniI8: one vpdpbusd per uint8 x int8 code quad, the four
/// products summed straight into the int32 lane (exact wherever
/// int_reduction_fits_int8_dot holds: no saturating step). Legal only
/// after CPUID proved AVX-VNNI, and run only inside run_vnni.
struct VnniQuadMac : Avx2PairMac {
  __attribute__((target("avx2,avxvnni"))) static void mac(Vec& acc, const Vec& a,
                                                          const Vec& w) {
    acc = _mm256_dpbusd_avx_epi32(acc, a, w);
  }
};

/// The AVX2 frame: in optimized builds flatten inlines the kernel
/// template and every policy member into this one target("avx2")
/// function, so the frame makes no calls. Unoptimized builds keep the
/// calls, which stay legal: only the policy members execute AVX2.
template <typename Mac, typename Body>
__attribute__((target("avx2"), flatten)) void run_avx2(Body& body) {
  body(Mac{});
}

/// The AVX-VNNI frame, run_avx2's twin for VnniQuadMac.
template <typename Mac, typename Body>
__attribute__((target("avx2,avxvnni"), flatten)) void run_vnni(Body& body) {
  body(Mac{});
}

#endif  // CQ_SIMD_X86

/// Runs body(Mac{}) with the MAC policy of `kernel`: the one switch from
/// a pack's kernel choice to the code that runs it, for both op shapes.
template <typename Body>
void with_mac(Kernel kernel, Body&& body) {
  switch (kernel) {
#if CQ_SIMD_X86
    case Kernel::kVnniI8:
      run_vnni<VnniQuadMac>(body);
      return;
    case Kernel::kAvx2I8:
      run_avx2<Avx2QuadMac>(body);
      return;
    case Kernel::kAvx2I16:
      run_avx2<Avx2PairMac>(body);
      return;
#endif
#if CQ_SIMD_SSE2_BASELINE
    case Kernel::kSse2I16:
      body(Sse2PairMac{});
      return;
#endif
    case Kernel::kGeneric:
      body(GenericMac{});
      return;
    default:  // kScalar (refused by check_runnable) and kernels this build lacks
      return;
  }
}

/// Filters of tile `tile` that exist (the last tile may be partial).
int tile_filters(const PackedSimd& packed, std::size_t tile) {
  return static_cast<int>(std::min<std::size_t>(
      kFilterTile, static_cast<std::size_t>(packed.num_filters) - tile * kFilterTile));
}

/// The one vector MAC loop: the sums of one 8-filter tile for kP
/// columns at once — a conv's output positions or a linear op's
/// samples — where column p reads `rows` runs of `run` words, the run of
/// kernel row ky starting at at[p] + ky * row; column p's sums end in
/// acc[p][0]. For each kernel row and
/// each word q of its run, the panel row of 8 filter words (kFilterTile
/// / kLanes vectors) is loaded once and multiplied against each column's
/// broadcast word. Pruned and tail filters have zero words, and zero
/// codes (ReLU zeros, padding) multiply through too: a data-dependent
/// skip mispredicts more than it saves. The kChains accumulator rows of
/// each column split its reduction into that many chains over
/// consecutive words, so a block of fewer than 4 columns keeps several
/// multiply-adds in flight instead of waiting out vpdpbusd's latency
/// word by word; integer sums are exact in any grouping, so the chains
/// are added up at the end.
template <typename Mac, int kP, int kChains, int kParts>
void block_sums(const std::uint32_t* panel, const std::uint32_t* const (&at)[kP], int rows,
                std::size_t row, std::size_t run,
                typename Mac::Vec (&acc)[kP][kChains][kParts]) {
  using Vec = typename Mac::Vec;
  static_assert(kParts * Mac::kLanes == kFilterTile, "one panel row is kParts vectors");
  for (int b = 0; b < kP; ++b) {
    for (int c = 0; c < kChains; ++c) {
      for (int p = 0; p < kParts; ++p) Mac::zero(acc[b][c][p]);
    }
  }
  for (int ky = 0; ky < rows; ++ky) {
    const std::size_t offset = static_cast<std::size_t>(ky) * row;
    const std::uint32_t* const w = panel + static_cast<std::size_t>(ky) * run * kFilterTile;
    const auto step = [&](std::size_t q, int c) {
      Vec wv[kParts];
      for (int p = 0; p < kParts; ++p) Mac::load(wv[p], w + q * kFilterTile + p * Mac::kLanes);
      for (int b = 0; b < kP; ++b) {
        Vec a;
        Mac::splat(a, at[b][offset + q]);
        for (int p = 0; p < kParts; ++p) Mac::mac(acc[b][c][p], a, wv[p]);
      }
    };
    std::size_t q = 0;
    for (; q + kChains <= run; q += kChains) {
      for (int c = 0; c < kChains; ++c) step(q + static_cast<std::size_t>(c), c);
    }
    for (; q < run; ++q) step(q, 0);
  }
  for (auto& column : acc) {
    for (int c = 1; c < kChains; ++c) {
      for (int p = 0; p < kParts; ++p) Mac::add(column[0][p], column[c][p]);
    }
  }
}

/// Output rows [y0, y1) of one sample, tile by tile, kLanes output
/// positions of a row at a time (a row's last block repeats its last
/// position in the lanes past the row end and stores only the real
/// ones). The kLanes x 8 sums are transposed into filter-major vectors,
/// rescaled with the scalar kernel's expression and finished with the
/// epilogue, whose post-BN stages are `Stages`.
template <typename Mac, typename Stages>
void conv_block(const PackedSimd& packed, const ImageGeometry& geo, const std::uint32_t* image,
                float act_scale, const Epilogue& epilogue, OutAt out_n, int y0, int y1) {
  using Vec = typename Mac::Vec;
  const Epilogue ep = epilogue;
  constexpr int kP = Mac::kLanes;
  constexpr int kParts = kFilterTile / Mac::kLanes;
  const std::size_t spatial = static_cast<std::size_t>(geo.oh) * static_cast<std::size_t>(geo.ow);
  const std::size_t run = static_cast<std::size_t>(geo.kernel) * geo.pixel;
  const std::size_t step = static_cast<std::size_t>(geo.stride) * geo.pixel;
  const std::size_t tiles =
      (static_cast<std::size_t>(packed.num_filters) + kFilterTile - 1) / kFilterTile;
  for (std::size_t tile = 0; tile < tiles; ++tile) {
    const std::uint32_t* const panel =
        packed.panels.data() + tile * static_cast<std::size_t>(geo.kernel) * run * kFilterTile;
    const int kt = tile_filters(packed, tile);
    float scale[kFilterTile], bias[kFilterTile];
    for (int f = 0; f < kt; ++f) {
      scale[f] = packed.weight_scales[tile * kFilterTile + static_cast<std::size_t>(f)] * act_scale;
      bias[f] = packed.out_bias[tile * kFilterTile + static_cast<std::size_t>(f)];
    }
    const OutAt out_tile = out_n + tile * kFilterTile * spatial;
    for (int oy = y0; oy < y1; ++oy) {
      for (int ox = 0; ox < geo.ow; ox += kP) {
        const int n = std::min(kP, geo.ow - ox);
        const std::uint32_t* at[kP] = {image + geo.at(oy, ox)};
        for (int p = 1; p < kP; ++p) at[p] = p < n ? at[p - 1] + step : at[p - 1];
        Vec acc[kP][1][kParts];
        block_sums<Mac>(panel, at, geo.kernel, geo.row, run, acc);
        const OutAt dst =
            out_tile + (static_cast<std::size_t>(oy) * geo.ow + static_cast<std::size_t>(ox));
        for (int part = 0; part < kParts; ++part) {
          Vec v[kP];
          for (int p = 0; p < kP; ++p) {
            v[p] = acc[p][0][part];
            // Through memory: transposing the sums straight out of the
            // loop's registers makes GCC copy every accumulator on every
            // iteration of block_sums, a fifth slower.
            asm volatile("" : "+m"(v[p]));
          }
          Mac::transpose(v);
          for (int f = 0; f < kP && part * kP + f < kt; ++f) {
            const int k = part * kP + f;
            Mac::template store<Stages>(dst + static_cast<std::size_t>(k) * spatial, v[f],
                                        scale[k], bias[k], ep,
                                        tile * kFilterTile + static_cast<std::size_t>(k),
                                        static_cast<std::size_t>(n));
          }
        }
      }
    }
  }
}

/// One filter tile of a linear op for kSamples samples (image rows and
/// output rows start at the block's first sample): block_sums over each
/// sample's one run of `words` words with kBatchBlock / kSamples chains,
/// then the scalar kernel's rescale filter by filter, finished with the
/// epilogue by Mac::finish_row (feature k is channel k).
template <typename Mac, int kSamples>
void linear_block(const PackedSimd& packed, float act_scale, const std::uint32_t* image,
                  std::size_t words, std::size_t tile, const Epilogue& ep, OutAt out) {
  using Vec = typename Mac::Vec;
  constexpr int kParts = kFilterTile / Mac::kLanes;
  const std::uint32_t* at[kSamples];
  for (int b = 0; b < kSamples; ++b) at[b] = image + static_cast<std::size_t>(b) * words;
  Vec acc[kSamples][kBatchBlock / kSamples][kParts];
  block_sums<Mac>(packed.panels.data() + tile * words * kFilterTile, at, 1, 0, words, acc);

  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  const std::size_t k0 = tile * kFilterTile;
  const int kt = tile_filters(packed, tile);
  for (int b = 0; b < kSamples; ++b) {
    std::int32_t sums[kFilterTile];
    for (int p = 0; p < kParts; ++p) Mac::spill(sums + p * Mac::kLanes, acc[b][0][p]);
    float values[kFilterTile];
    for (int f = 0; f < kt; ++f) {
      const std::size_t k = k0 + static_cast<std::size_t>(f);
      const float scale = packed.weight_scales[k] * act_scale;
      values[f] = scale * static_cast<float>(sums[f]) + packed.out_bias[k];
    }
    Mac::finish_row(out + (static_cast<std::size_t>(b) * filters + k0), values, ep, k0, kt);
  }
}

/// Filter tiles [t0, t1) of a linear op, kBatchBlock samples at a time:
/// each panel row is loaded once per block and multiplied into all of
/// its samples' accumulators, amortizing the weight traffic.
template <typename Mac>
void linear_tiles(const PackedSimd& packed, float act_scale, const std::uint32_t* image,
                  int batch, std::size_t words, const Epilogue& ep, OutAt out, std::int64_t t0,
                  std::int64_t t1) {
  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  for (std::int64_t t = t0; t < t1; ++t) {
    const auto tile = static_cast<std::size_t>(t);
    for (int n0 = 0; n0 < batch; n0 += kBatchBlock) {
      const std::uint32_t* rows = image + static_cast<std::size_t>(n0) * words;
      const OutAt out_rows = out + static_cast<std::size_t>(n0) * filters;
      switch (std::min(kBatchBlock, batch - n0)) {
        case 1:
          linear_block<Mac, 1>(packed, act_scale, rows, words, tile, ep, out_rows);
          break;
        case 2:
          linear_block<Mac, 2>(packed, act_scale, rows, words, tile, ep, out_rows);
          break;
        case 3:
          linear_block<Mac, 3>(packed, act_scale, rows, words, tile, ep, out_rows);
          break;
        default:
          linear_block<Mac, kBatchBlock>(packed, act_scale, rows, words, tile, ep, out_rows);
          break;
      }
    }
  }
}

/// Runs body(n, y0, y1) for a conv's (sample n, output rows [y0, y1))
/// tasks, every filter each, the rule every conv frame shares: a task
/// holds at least kMinMacsPerThread (an output row costs `row_macs`), so
/// ops too small to repay a thread dispatch run on the calling thread.
/// The amx frame pairs segments into its two A tiles, so a task with an
/// odd segment count computes its last one twice: with `even_rows` (a
/// row holds an odd number of segments) tasks take an even number of
/// rows.
template <typename Body>
void for_row_blocks(std::int64_t row_macs, int oh, bool even_rows, int batch,
                    const util::ExecContext& exec, Body&& body) {
  row_macs = std::max<std::int64_t>(1, row_macs);
  auto rows_per_task = static_cast<int>(
      std::clamp<std::int64_t>((kMinMacsPerThread + row_macs - 1) / row_macs, 1, oh));
  if (even_rows && rows_per_task % 2 == 1 && rows_per_task < oh) ++rows_per_task;
  const std::int64_t row_blocks = (oh + rows_per_task - 1) / rows_per_task;
  exec.capped(batch * oh * row_macs / kMinMacsPerThread)
      .parallel_for(0, batch * row_blocks, [&](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t task = lo; task < hi; ++task) {
          const int y0 = static_cast<int>(task % row_blocks) * rows_per_task;
          body(static_cast<std::size_t>(task / row_blocks), y0, std::min(oh, y0 + rows_per_task));
        }
      });
}

// ---------------------------------------------------------------------------
// The amx conv: tdpbusd tiles over the code image.
// ---------------------------------------------------------------------------

#if CQ_HAVE_AMX

/// Palette-1 tile configuration: C tiles 0-3 (m rows x 16 int32), A
/// tiles 4-5 (m rows x chunk bytes), B tiles 6-7 (chunk / 4 rows x 64
/// bytes). Built outside the frame: _tile_loadconfig's asm names only
/// the first 8 bytes as its input.
struct alignas(64) TileConfig {
  explicit TileConfig(const ImageGeometry& geo) {
    for (int t = 0; t < 8; ++t) {
      const bool b_tile = t >= 6;
      rows[t] = static_cast<std::uint8_t>(b_tile ? geo.run.chunk / 4 : geo.m);
      colsb[t] = static_cast<std::uint16_t>(t >= 4 && !b_tile ? geo.run.chunk : kTileRowBytes);
    }
  }
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};
static_assert(sizeof(TileConfig) == 64, "ldtilecfg reads 64 bytes");

/// Sums C tiles 0 = A0 x B0, 1 = A0 x B1, 2 = A1 x B0 and 3 = A1 x B1
/// over every kernel row and K-chunk and stores them to c[0..3]; kB1 says
/// whether the second B tile exists (tile numbers must be literals).
/// seg[i] = {oy, ox0} of A tile i.
template <bool kB1>
__attribute__((target("amx-tile,amx-int8"))) void tile_sums(
    const ImageGeometry& geo, const unsigned char* image, const int (&seg)[2][2],
    const unsigned char* b0, const unsigned char* b1,
    std::int32_t (&c)[4][kTileRows * kTileFilters]) {
  _tile_zero(0);
  if constexpr (kB1) _tile_zero(1);
  _tile_zero(2);
  if constexpr (kB1) _tile_zero(3);
  const auto a_stride = static_cast<long>(geo.a_stride());
  const std::size_t ky_stride = geo.run.bytes() * kTileFilters;
  for (int ky = 0; ky < geo.kernel; ++ky) {
    for (std::size_t j = 0; j < geo.run.chunks; ++j) {
      const std::size_t b = static_cast<std::size_t>(ky) * ky_stride + j * geo.run.chunk * kTileFilters;
      _tile_loadd(4, image + geo.a_tile(seg[0][0], seg[0][1], ky, j), a_stride);
      _tile_loadd(5, image + geo.a_tile(seg[1][0], seg[1][1], ky, j), a_stride);
      _tile_loadd(6, b0 + b, kTileRowBytes);
      if constexpr (kB1) _tile_loadd(7, b1 + b, kTileRowBytes);
      _tile_dpbusd(0, 4, 6);
      if constexpr (kB1) _tile_dpbusd(1, 4, 7);
      _tile_dpbusd(2, 5, 6);
      if constexpr (kB1) _tile_dpbusd(3, 5, 7);
    }
  }
  _tile_stored(0, c[0], kTileRowBytes);
  if constexpr (kB1) _tile_stored(1, c[1], kTileRowBytes);
  _tile_stored(2, c[2], kTileRowBytes);
  if constexpr (kB1) _tile_stored(3, c[3], kTileRowBytes);
}

/// Per-filter constants of a frame's 32 filters (two B tiles), zero past
/// the layer's last filter so they load 8 at a time: the rescale, and
/// the BatchNorm vectors when the epilogue has ep_bn.
struct alignas(32) TileConsts {
  float scale[2 * kTileFilters], bias[2 * kTileFilters];
  float mean[2 * kTileFilters], inv_std[2 * kTileFilters];
  float gamma[2 * kTileFilters], beta[2 * kTileFilters];
};

/// Rescales C tile `acc` ([m positions][16 filters] int32; rows past m
/// are never read) with the scalar kernel's expression, (ws * act_scale) *
/// float(acc) + bias — multiply, then add — and BN, on rows of 8
/// filters, then writes its first `filters` filters' m positions to dst
/// + f * spatial through store_tail<Stages>: 8x8 transposes turn position
/// rows into the plan's filter-major rows. `k` indexes the tile's first
/// filter in `consts`.
template <typename Stages>
__attribute__((target("avx2"))) void store_tile(const std::int32_t* acc, const TileConsts& consts,
                                                int k, int filters, int m, const Epilogue& ep,
                                                OutAt dst, std::size_t spatial) {
  const int halves = (m + 7) / 8;
  for (int f0 = 0; f0 < filters; f0 += 8) {
    const int f = k + f0;
    const __m256 sc = _mm256_load_ps(consts.scale + f);
    const __m256 bi = _mm256_load_ps(consts.bias + f);
    __m256i v[2][8];
    for (int h = 0; h < halves; ++h) {
      for (int r = 0; r < 8; ++r) {
        const int p = 8 * h + r;
        const __m256i sums = p < m ? _mm256_load_si256(reinterpret_cast<const __m256i*>(
                                         acc + p * kTileFilters + f0))
                                   : _mm256_setzero_si256();
        __m256 o = _mm256_add_ps(_mm256_mul_ps(_mm256_cvtepi32_ps(sums), sc), bi);
        if (ep.bn) {
          o = batch_norm_avx2(o, _mm256_load_ps(consts.mean + f),
                              _mm256_load_ps(consts.inv_std + f),
                              _mm256_load_ps(consts.gamma + f), _mm256_load_ps(consts.beta + f));
        }
        v[h][r] = _mm256_castps_si256(o);
      }
      transpose8(v[h]);
    }
    // Each filter's m positions are stored back to back: on a 32x32
    // plane the 16 filters' rows are 4 KB apart, one L1 set, so writing
    // a line in two visits would fetch it twice.
    for (int f = 0; f < std::min(8, filters - f0); ++f) {
      const OutAt d = dst + static_cast<std::size_t>(f0 + f) * spatial;
      for (int h = 0; h < halves; ++h) {
        store_tail<Stages>(d + static_cast<std::size_t>(8 * h), _mm256_castsi256_ps(v[h][f]),
                           ep, std::min(8, m - 8 * h));
      }
    }
  }
}

/// The AMX frame: output rows [y0, y1) of one sample, every filter.
/// Each row is covered by segments of m positions, the last one shifted
/// back to end at ow (it rewrites identical values: it recomputes them
/// from the image and reads the residual, never the output, which no
/// compute op writes in place); segment pairs fill the two A tiles (an
/// odd last segment fills both and is written twice) and 16-filter block
/// pairs the two B tiles, so each K-chunk is 4 tdpbusd over 4 tile loads.
/// In optimized builds flatten inlines every helper, so the frame makes
/// no calls. `Stages` are the epilogue's post-BN stages.
template <typename Stages>
__attribute__((target("amx-tile,amx-int8,avx2"), flatten)) void conv_tiles(
    const PackedSimd& packed, const ImageGeometry& geo, const TileConfig& config,
    const unsigned char* image, float act_scale, const Epilogue& epilogue, OutAt out_n, int y0,
    int y1) {
  const Epilogue ep = epilogue;
  _tile_loadconfig(&config);
  alignas(64) std::int32_t c[4][kTileRows * kTileFilters];  // written by tile_sums
  const int per_row = geo.segments_per_row();
  const int segments = (y1 - y0) * per_row;
  const std::size_t spatial = static_cast<std::size_t>(geo.oh) * static_cast<std::size_t>(geo.ow);
  const std::size_t block_bytes =
      static_cast<std::size_t>(geo.kernel) * geo.run.bytes() * kTileFilters;
  const auto* const panels = reinterpret_cast<const unsigned char*>(packed.panels.data());
  const int blocks = (packed.num_filters + kTileFilters - 1) / kTileFilters;
  for (int b = 0; b < blocks; b += 2) {
    const int k0 = b * kTileFilters;
    const int kt = std::min(2 * kTileFilters, packed.num_filters - k0);
    TileConsts consts = {};
    for (int f = 0; f < kt; ++f) {
      const auto k = static_cast<std::size_t>(k0 + f);
      consts.scale[f] = packed.weight_scales[k] * act_scale;
      consts.bias[f] = packed.out_bias[k];
      if (ep.bn) {
        consts.mean[f] = ep.mean[k];
        consts.inv_std[f] = ep.inv_std[k];
        consts.gamma[f] = ep.gamma[k];
        consts.beta[f] = ep.beta[k];
      }
    }
    const unsigned char* const b0 = panels + static_cast<std::size_t>(b) * block_bytes;
    const int tiles_b = b + 1 < blocks ? 2 : 1;
    for (int s = 0; s < segments; s += 2) {
      int seg[2][2];
      for (int i = 0; i < 2; ++i) {
        const int index = std::min(s + i, segments - 1);
        seg[i][0] = y0 + index / per_row;
        seg[i][1] = std::min(index % per_row * geo.m, geo.ow - geo.m);
      }
      if (tiles_b == 2) {
        tile_sums<true>(geo, image, seg, b0, b0 + block_bytes, c);
      } else {
        tile_sums<false>(geo, image, seg, b0, b0, c);
      }
      for (int i = 0; i < 2; ++i) {
        for (int h = 0; h < tiles_b; ++h) {
          const OutAt dst =
              out_n + (static_cast<std::size_t>(k0 + h * kTileFilters) * spatial +
                       static_cast<std::size_t>(seg[i][0]) * geo.ow +
                       static_cast<std::size_t>(seg[i][1]));
          store_tile<Stages>(c[2 * i + h], consts, h * kTileFilters,
                             std::min(kTileFilters, kt - h * kTileFilters), geo.m, ep, dst,
                             spatial);
        }
      }
    }
  }
  _tile_release();
}

#endif  // CQ_HAVE_AMX

// ---------------------------------------------------------------------------
// Float convolutions and max-pools at the tiers with AVX2.
// ---------------------------------------------------------------------------

/// A stride-1 float conv's geometry and its zero-padded, channel-major
/// input image, per sample [channels][height + 2 pad][width + 2 pad]
/// floats: output position (oy, ox) reads, for im2col row (c, ky), the
/// run of `kernel` floats at at(oy, ox) + c * plane + ky * row, so the
/// padding im2col writes as +0.0 is read as +0.0. With no padding the
/// image is the input itself.
struct FloatImage {
  explicit FloatImage(const PlanOp& op)
      : channels(op.in_c),
        height(op.in_h),
        width(op.in_w),
        kernel(op.kernel),
        pad(op.pad),
        oh(op.in_h + 2 * op.pad - op.kernel + 1),
        ow(op.in_w + 2 * op.pad - op.kernel + 1),
        row(static_cast<std::size_t>(op.in_w + 2 * op.pad)),
        plane(static_cast<std::size_t>(op.in_h + 2 * op.pad) * row),
        sample(static_cast<std::size_t>(op.in_c) * plane) {}

  std::size_t at(int oy, int ox) const {
    return static_cast<std::size_t>(oy) * row + static_cast<std::size_t>(ox);
  }
  /// Copies one sample's [channels][height][width] input into `dst`.
  void fill(const float* src, float* dst) const {
    std::fill(dst, dst + sample, 0.0f);
    const auto w = static_cast<std::size_t>(width);
    for (int c = 0; c < channels; ++c) {
      for (int y = 0; y < height; ++y, src += w) {
        std::copy(src, src + w,
                  dst + static_cast<std::size_t>(c) * plane + at(y + pad, pad));
      }
    }
  }

  int channels, height, width, kernel, pad, oh, ow;
  std::size_t row, plane, sample;
};

/// Whether prepare() packs `op` as a float conv: stride 1, at least one
/// output, and weights and bias of the sizes its geometry names.
bool packs_as_float_conv(const PlanOp& op) {
  if (op.kind != OpKind::FloatConv || op.stride != 1 || op.kernel < 1 || op.in_c < 1 ||
      op.out_c < 1 || op.pad < 0) {
    return false;
  }
  const FloatImage geo(op);
  return geo.oh >= 1 && geo.ow >= 1 && op.out_h == geo.oh && op.out_w == geo.ow &&
         op.weight.numel() == static_cast<std::size_t>(op.out_c) * op.in_c * op.kernel *
                                  op.kernel &&
         op.bias.size() == static_cast<std::size_t>(op.out_c);
}

/// op.weight ([out_c][in_c * k * k], im2col row order) as FloatPanels.
FloatPanels pack_float_panels(const PlanOp& op) {
  const auto filters = static_cast<std::size_t>(op.out_c);
  const std::size_t rows = op.weight.numel() / filters;
  FloatPanels packed;
  packed.out = op.out;
  packed.panels.assign((filters + kFilterTile - 1) / kFilterTile * rows * kFilterTile, 0.0f);
  for (std::size_t k = 0; k < filters; ++k) {
    float* const lane = packed.panels.data() + k / kFilterTile * rows * kFilterTile + k % kFilterTile;
    for (std::size_t p = 0; p < rows; ++p) lane[p * kFilterTile] = op.weight.data()[k * rows + p];
  }
  return packed;
}

#if CQ_SIMD_X86

/// One term of the reference conv's sum on 8 lanes: x * w, masked to
/// +0.0 where `live` (w != 0) is clear — gemm's skip of a zero weight —
/// then added as product + acc: with the product as the first operand a
/// NaN product keeps its own payload, ScalarBackend's rule. GCC treats
/// float + as commutative and may swap the operands of an intrinsic, so
/// the add is pinned in asm (a plain vaddps: the multiply is never fused
/// into it).
__attribute__((target("avx2"))) inline void float_mac(__m256& acc, const __m256& x,
                                                      const __m256& w, const __m256& live) {
  const __m256 product = _mm256_and_ps(_mm256_mul_ps(x, w), live);
  asm("vaddps {%2, %1, %0|%0, %1, %2}" : "=x"(acc) : "x"(product), "x"(acc));
}

/// Output rows [y0, y1) of one sample of a stride-1 float conv, tile by
/// tile, 8 output positions of a row at a time (a row's last block
/// repeats its last position in the lanes past the row end and stores
/// only the real ones). For each im2col row p in ascending order the
/// panel row of 8 filters' weights is loaded once and multiplied against
/// each position's broadcast input; the 8 x 8 sums are transposed into
/// filter-major vectors, the bias added (add_keeping_nan: a NaN sum keeps
/// its payload), and finished with the epilogue
/// (post-BN stages `Stages`) in the store. In optimized builds flatten
/// inlines every helper, so the frame makes no calls.
template <typename Stages>
__attribute__((target("avx2"), flatten)) void float_conv_rows(
    const FloatImage& geo, const float* panels, const float* bias, int filters,
    const float* image, const Epilogue& epilogue, OutAt out_n, int y0, int y1) {
  const Epilogue ep = epilogue;
  const std::size_t spatial = static_cast<std::size_t>(geo.oh) * static_cast<std::size_t>(geo.ow);
  const std::size_t panel_floats =
      static_cast<std::size_t>(geo.channels) * geo.kernel * geo.kernel * kFilterTile;
  const __m256 zero = _mm256_setzero_ps();
  for (int k0 = 0; k0 < filters; k0 += kFilterTile) {
    const float* const panel = panels + static_cast<std::size_t>(k0 / kFilterTile) * panel_floats;
    const int kt = std::min(kFilterTile, filters - k0);
    const OutAt out_tile = out_n + static_cast<std::size_t>(k0) * spatial;
    for (int oy = y0; oy < y1; ++oy) {
      for (int ox = 0; ox < geo.ow; ox += 8) {
        const int n = std::min(8, geo.ow - ox);
        const float* at[8] = {image + geo.at(oy, ox)};
        for (int b = 1; b < 8; ++b) at[b] = b < n ? at[b - 1] + 1 : at[b - 1];
        __m256 acc[8];
        for (__m256& a : acc) a = zero;
        const float* w = panel;
        for (int c = 0; c < geo.channels; ++c) {
          for (int ky = 0; ky < geo.kernel; ++ky) {
            const std::size_t offset = static_cast<std::size_t>(c) * geo.plane +
                                       static_cast<std::size_t>(ky) * geo.row;
            for (int kx = 0; kx < geo.kernel; ++kx, w += kFilterTile) {
              const __m256 wv = _mm256_loadu_ps(w);
              const __m256 live = _mm256_cmp_ps(wv, zero, _CMP_NEQ_UQ);
              for (int b = 0; b < 8; ++b) {
                float_mac(acc[b], _mm256_set1_ps(at[b][offset + static_cast<std::size_t>(kx)]), wv,
                          live);
              }
            }
          }
        }
        __m256i v[8];
        for (int b = 0; b < 8; ++b) v[b] = _mm256_castps_si256(acc[b]);
        transpose8(v);
        const OutAt dst =
            out_tile + (static_cast<std::size_t>(oy) * geo.ow + static_cast<std::size_t>(ox));
        for (int f = 0; f < kt; ++f) {
          const auto k = static_cast<std::size_t>(k0 + f);
          store_channel<Stages>(dst + static_cast<std::size_t>(f) * spatial,
                                add_keeping_nan_avx2(_mm256_castsi256_ps(v[f]),
                                                     _mm256_set1_ps(bias[k])),
                                ep, k, n);
        }
      }
    }
  }
}

/// One pool tap for `Lanes` (8 or 4) consecutive outputs at stride
/// `Stride` (1 or 2), from p, the tap's input for the first of them;
/// every load ends at the last float the tap reads. At stride 2 the 8
/// lanes come out as p0 p2 p8 p10 | p4 p6 p12 p14 (one shuffle of two
/// loads); every tap shares that order, and maxps works lane by lane, so
/// pool_block puts the lanes in order once, after the last tap.
template <int Lanes, int Stride>
__attribute__((target("avx2"))) auto pool_tap(const float* p) {
  if constexpr (Lanes == 8 && Stride == 1) {
    return _mm256_loadu_ps(p);
  } else if constexpr (Lanes == 8) {
    return _mm256_shuffle_ps(_mm256_loadu_ps(p), _mm256_loadu_ps(p + 7), 0xD8);
  } else if constexpr (Stride == 1) {
    return _mm_loadu_ps(p);
  } else {  // p0 p2 p4 p6 from p0..p3 and p3..p6
    return _mm_shuffle_ps(_mm_loadu_ps(p), _mm_loadu_ps(p + 3), 0xD8);
  }
}

/// maxps(v, best): best unless v is greater, lane for lane (NaN and +-0
/// ties included), which is `if (v > best) best = v`.
__attribute__((target("avx2"))) __m256 max_lanes(const __m256& v, const __m256& best) {
  return _mm256_max_ps(v, best);
}
__attribute__((target("avx2"))) __m128 max_lanes(const __m128& v, const __m128& best) {
  return _mm_max_ps(v, best);
}

/// `Lanes` consecutive pooled outputs, from output x on, of each of the
/// `Rows` output rows from y on of one plane: each output's taps run in
/// order, and the rows' independent maxps chains interleave.
template <int Lanes, int Stride, int Rows>
__attribute__((target("avx2"))) void pool_block(const float* src, int in_w, int kernel, int y,
                                                int x, int ow, float* out) {
  const float lowest = -std::numeric_limits<float>::infinity();
  decltype(pool_tap<Lanes, Stride>(src)) best[Rows];
  for (auto& b : best) {
    if constexpr (Lanes == 8) {
      b = _mm256_set1_ps(lowest);
    } else {
      b = _mm_set1_ps(lowest);
    }
  }
  const std::size_t row_step = static_cast<std::size_t>(Stride) * in_w;
  for (int ky = 0; ky < kernel; ++ky) {
    const float* const row = src + static_cast<std::size_t>(y * Stride + ky) * in_w + x * Stride;
    for (int kx = 0; kx < kernel; ++kx) {
      for (int r = 0; r < Rows; ++r) {
        best[r] = max_lanes(pool_tap<Lanes, Stride>(row + r * row_step + kx), best[r]);
      }
    }
  }
  for (int r = 0; r < Rows; ++r) {
    float* const dst = out + static_cast<std::size_t>(r) * ow + x;
    if constexpr (Lanes == 4) {
      _mm_storeu_ps(dst, best[r]);
    } else if constexpr (Stride == 2) {
      _mm256_storeu_ps(dst,
                       _mm256_castpd_ps(_mm256_permute4x64_pd(_mm256_castps_pd(best[r]), 0xD8)));
    } else {
      _mm256_storeu_ps(dst, best[r]);
    }
  }
}

/// Output rows [y, y + Rows) of one plane, `out` at row y: 8 outputs of
/// a row at a time, then 4 (VGG-small's last pool is 4 wide), then the
/// last 1-3 through the scalar expression itself.
template <int Stride, int Rows>
__attribute__((target("avx2"))) void pool_rows(const float* src, int in_w, int kernel, int y,
                                               int ow, float* out) {
  int x = 0;
  for (; x + 8 <= ow; x += 8) pool_block<8, Stride, Rows>(src, in_w, kernel, y, x, ow, out);
  if (x + 4 <= ow) {
    pool_block<4, Stride, Rows>(src, in_w, kernel, y, x, ow, out);
    x += 4;
  }
  for (int r = 0; r < Rows; ++r) {
    for (int xr = x; xr < ow; ++xr) {
      float best = -std::numeric_limits<float>::infinity();
      for (int ky = 0; ky < kernel; ++ky) {
        for (int kx = 0; kx < kernel; ++kx) {
          const float v =
              src[static_cast<std::size_t>((y + r) * Stride + ky) * in_w + xr * Stride + kx];
          if (v > best) best = v;
        }
      }
      out[static_cast<std::size_t>(r) * ow + xr] = best;
    }
  }
}

/// MaxPool at stride `Stride` over `planes` [in_h][in_w] planes:
/// ScalarBackend's `if (v > best) best = v` from -inf in (ky, kx) order,
/// as maxps(v, best) on 8 or 4 outputs of a row, 4 rows at a time.
template <int Stride>
__attribute__((target("avx2"), flatten)) void max_pool_rows(const float* in, float* out,
                                                            std::size_t planes, int in_h,
                                                            int in_w, int kernel, int oh,
                                                            int ow) {
  for (std::size_t plane = 0; plane < planes; ++plane) {
    const float* const src = in + plane * static_cast<std::size_t>(in_h) * in_w;
    int y = 0;
    for (; y + 4 <= oh; y += 4, out += 4 * static_cast<std::size_t>(ow)) {
      pool_rows<Stride, 4>(src, in_w, kernel, y, ow, out);
    }
    for (; y < oh; ++y, out += ow) pool_rows<Stride, 1>(src, in_w, kernel, y, ow, out);
  }
}

/// A packed stride-1 FloatConv over io: each sample's image (the input
/// itself without padding), then float_conv_rows over (sample, output
/// rows) tasks of a minimum MAC count.
void float_conv_forward_into(const FloatPanels& packed, const PlanOp& op, const BackendIo& io,
                             std::vector<float>& image, const util::ExecContext& exec) {
  const FloatImage geo(op);
  const std::size_t in_sample = static_cast<std::size_t>(op.in_c) * op.in_h * op.in_w;
  const float* data = io.in0;
  if (geo.pad > 0) {
    image.resize(static_cast<std::size_t>(io.batch) * geo.sample);
    exec.capped(static_cast<std::int64_t>(geo.sample) * io.batch / kMinElementsPerThread)
        .parallel_for(0, io.batch, [&](std::int64_t lo, std::int64_t hi) {
          for (std::int64_t n = lo; n < hi; ++n) {
            geo.fill(io.in0 + static_cast<std::size_t>(n) * in_sample,
                     image.data() + static_cast<std::size_t>(n) * geo.sample);
          }
        });
    data = image.data();
  }
  const Epilogue epilogue(op, io);
  const OutAt out_at{io.out, epilogue.add ? epilogue.residual : nullptr};
  const std::size_t out_sample =
      static_cast<std::size_t>(op.out_c) * static_cast<std::size_t>(geo.oh) * geo.ow;
  const std::int64_t row_macs =
      static_cast<std::int64_t>(geo.ow) * op.out_c * op.in_c * op.kernel * op.kernel;
  epilogue.with_tail_stages([&](auto stages) {
    for_row_blocks(row_macs, geo.oh, false, io.batch, exec, [&](std::size_t n, int y0, int y1) {
      float_conv_rows<decltype(stages)>(geo, packed.panels.data(), op.bias.data(), op.out_c,
                                        data + n * geo.sample, epilogue,
                                        out_at + n * out_sample, y0, y1);
    });
  });
}

#endif  // CQ_SIMD_X86

}  // namespace

void conv_forward_into(const PackedSimd& packed, const float* acts, ActGrid grid,
                       int batch, int in_c, int height, int width, int kernel,
                       int stride, int pad, float* out, std::vector<std::uint32_t>& image,
                       const util::ExecContext& exec, const Epilogue& epilogue) {
  const float act_scale = check_runnable(packed, grid, "simd::conv_forward_into");
  if (packed.taps != kernel * kernel || packed.channels != in_c) {
    throw std::invalid_argument("simd::conv_forward_into: geometry mismatch");
  }
  const ImageGeometry geo(codes_per_word(packed.kernel), in_c, height, width, kernel, stride,
                          pad);
  if (geo.oh <= 0 || geo.ow <= 0) {
    throw std::invalid_argument("simd::conv_forward_into: empty output");
  }
  const bool amx = packed.kernel == Kernel::kAmxI8;
  if (amx && !cpu_features().amx) {
    throw std::logic_error(
        "simd::conv_forward_into: the amx kernel needs AMX-INT8 and the tile permission");
  }
  image.resize(geo.words(batch));
  adopt_image(acts, grid, batch, in_c, height, width, packed.kernel, geo, image.data(), exec);

  const std::size_t out_sample = static_cast<std::size_t>(packed.num_filters) *
                                 static_cast<std::size_t>(geo.oh) *
                                 static_cast<std::size_t>(geo.ow);
  const std::uint32_t* const data = image.data();
  const OutAt out_at{out, epilogue.add ? epilogue.residual : nullptr};
  const std::int64_t row_macs =
      static_cast<std::int64_t>(geo.ow) * packed.num_filters * packed.weights_per_filter;
  const bool even_rows = geo.segments_per_row() % 2 == 1;
  epilogue.with_tail_stages([&](auto stages) {
    using Stages = decltype(stages);
    if (amx) {
#if CQ_HAVE_AMX
      const TileConfig config(geo);
      for_row_blocks(row_macs, geo.oh, even_rows, batch, exec, [&](std::size_t n, int y0, int y1) {
        conv_tiles<Stages>(packed, geo, config,
                           reinterpret_cast<const unsigned char*>(data + n * geo.sample),
                           act_scale, epilogue, out_at + n * out_sample, y0, y1);
      });
#endif
      return;
    }
    for_row_blocks(row_macs, geo.oh, even_rows, batch, exec, [&](std::size_t n, int y0, int y1) {
      with_mac(packed.kernel, [&](auto mac) {
        using Mac = decltype(mac);
        // A store that applies the runtime Epilogue needs one instance.
        using StoreStages =
            std::conditional_t<Mac::kStagedStore, Stages, TailStages<false, false, false>>;
        conv_block<Mac, StoreStages>(packed, geo, data + n * geo.sample, act_scale, epilogue,
                                     out_at + n * out_sample, y0, y1);
      });
    });
  });
}

void linear_forward_into(const PackedSimd& packed, const float* acts, ActGrid grid,
                         int batch, int in_features, float* out,
                         std::vector<std::uint32_t>& image,
                         const util::ExecContext& exec, const Epilogue& epilogue) {
  const float act_scale = check_runnable(packed, grid, "simd::linear_forward_into");
  if (packed.taps != 1 || in_features != packed.weights_per_filter) {
    throw std::invalid_argument("simd::linear_forward_into: in_features mismatch");
  }
  if (packed.kernel == Kernel::kAmxI8) {
    throw std::invalid_argument("simd::linear_forward_into: layer was packed for a conv");
  }
  const ImageGeometry geo(codes_per_word(packed.kernel), in_features, 1, 1, 1, 1, 0);
  image.resize(geo.words(batch));
  adopt_image(acts, grid, batch, in_features, 1, 1, packed.kernel, geo, image.data(), exec);

  const std::size_t filters = static_cast<std::size_t>(packed.num_filters);
  const auto tiles = static_cast<std::int64_t>((filters + kFilterTile - 1) / kFilterTile);
  const std::uint32_t* const image_data = image.data();
  const OutAt out_at{out, epilogue.add ? epilogue.residual : nullptr};
  exec.capped(static_cast<std::int64_t>(filters) * in_features * batch / kMinMacsPerThread)
      .parallel_for(0, tiles, [&](std::int64_t t0, std::int64_t t1) {
        with_mac(packed.kernel, [&](auto mac) {
          linear_tiles<decltype(mac)>(packed, act_scale, image_data, batch, geo.pixel, epilogue,
                                      out_at, t0, t1);
        });
      });
}

TileImageBounds tile_image_bounds(int batch, int in_c, int height, int width, int kernel,
                                  int stride, int pad) {
  // The last A tile: the last sample's last row segment, at the last
  // kernel row and K-chunk; its row m - 1 ends `chunk` bytes on.
  const ImageGeometry geo(4, in_c, height, width, kernel, stride, pad);
  const std::size_t sample_bytes = geo.sample * sizeof(std::uint32_t);
  return {geo.words(batch) * sizeof(std::uint32_t),
          static_cast<std::size_t>(batch - 1) * sample_bytes +
              geo.a_tile(geo.oh - 1, geo.ow - geo.m, kernel - 1, geo.run.chunks - 1) +
              static_cast<std::size_t>(geo.m - 1) * geo.a_stride() + geo.run.chunk};
}

}  // namespace simd

void SimdBackend::prepare(const ExecutionPlan& plan) {
  // Each integer layer is packed once, for the widest activation grid
  // among the ops that read it (one op per layer in compiled plans) and
  // that op's shape; layers no op reads keep an empty kScalar pack.
  const std::vector<IntegerLayer>& layers = plan.integer_layers();
  std::vector<int> act_bits(layers.size(), 0);
  std::vector<simd::OpShape> shapes(layers.size(), simd::OpShape::linear());
  for (const PlanOp& op : plan.ops()) {
    if (op.kind != OpKind::IntConv && op.kind != OpKind::IntLinear) continue;
    if (op.layer < 0 || static_cast<std::size_t>(op.layer) >= layers.size()) continue;
    const auto layer = static_cast<std::size_t>(op.layer);
    act_bits[layer] = std::max(act_bits[layer], op.act_bits);
    if (op.kind == OpKind::IntConv) shapes[layer] = simd::OpShape::conv(op.kernel);
  }
  packed_.clear();
  packed_.resize(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    if (act_bits[i] > 0) {
      packed_[i] = simd::pack_simd(layers[i], tier_, act_bits[i], shapes[i]);
    }
  }
  float_panels_.clear();
  if (tier_ >= SimdTier::kAvx2) {
    for (const PlanOp& op : plan.ops()) {
      if (simd::packs_as_float_conv(op)) float_panels_.push_back(simd::pack_float_panels(op));
    }
  }
  prepared_for_ = &plan;
}

const simd::FloatPanels* SimdBackend::float_panels(const PlanOp& op) const {
  if (op.kind != OpKind::FloatConv) return nullptr;
  for (const simd::FloatPanels& packed : float_panels_) {
    if (packed.out == op.out) return &packed;
  }
  return nullptr;
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
      // The scalar reference's input adoption (encode raw activations,
      // cast pre-encoded grid codes), fused into the code image build,
      // and its epilogue, fused into the kernel's store.
      const simd::ActGrid grid{op.act_hi, op.act_bits, op.in_codes};
      const Epilogue epilogue(op, io);
      if (op.kind == OpKind::IntConv) {
        simd::conv_forward_into(packed, io.in0, grid, io.batch, op.in_c, op.in_h,
                                op.in_w, op.kernel, op.stride, op.pad, io.out,
                                scratch.code_image, exec, epilogue);
      } else {
        simd::linear_forward_into(packed, io.in0, grid, io.batch, op.in_features,
                                  io.out, scratch.code_image, exec, epilogue);
      }
      return;
    }
  }
#if CQ_SIMD_X86
  if (tier_ >= SimdTier::kAvx2) {
    switch (op.kind) {
      case OpKind::EncodeAct:
        simd::encode_act_avx2(io.in0, io.out,
                              plan.slots()[static_cast<std::size_t>(op.out)].numel *
                                  static_cast<std::size_t>(io.batch),
                              op.act_hi, op.act_bits);
        return;
      case OpKind::MaxPool:
        if (op.stride > 2) break;
        (op.stride == 1 ? simd::max_pool_rows<1> : simd::max_pool_rows<2>)(
            io.in0, io.out, static_cast<std::size_t>(io.batch) * static_cast<std::size_t>(op.in_c),
            op.in_h, op.in_w, op.kernel, op.out_h, op.out_w);
        return;
      case OpKind::FloatConv:
        if (op.stride != 1) break;
        if (prepared_for_ != &plan) {
          throw std::logic_error("SimdBackend: prepare() was not run for this plan");
        }
        if (const simd::FloatPanels* packed = float_panels(op)) {
          simd::float_conv_forward_into(*packed, op, io, scratch.float_image, exec);
          return;
        }
        break;
      default:
        break;
    }
  }
#endif
  ScalarBackend::run(op, plan, io, scratch, exec);
}

const char* SimdBackend::dispatch(const PlanOp& op) const {
  const bool avx2 = tier_ >= SimdTier::kAvx2;
  switch (op.kind) {
    case OpKind::IntConv:
    case OpKind::IntLinear: {
      const auto layer = static_cast<std::size_t>(op.layer);
      return layer < packed_.size() ? simd::kernel_label(packed_[layer].kernel) : "scalar";
    }
    case OpKind::EncodeAct:
      return avx2 ? "simd/avx2" : "scalar";
    case OpKind::MaxPool:
      return avx2 && op.stride <= 2 ? "simd/avx2" : "scalar";
    case OpKind::FloatConv:
      return float_panels(op) != nullptr ? "simd/avx2" : "scalar";
    default:
      return "scalar";
  }
}

std::size_t SimdBackend::prepared_bytes() const {
  std::size_t bytes = 0;
  for (const simd::PackedSimd& packed : packed_) bytes += packed.bytes();
  for (const simd::FloatPanels& packed : float_panels_) bytes += packed.panels.size() * sizeof(float);
  return bytes;
}

}  // namespace cq::deploy
