#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "quant/bitwidth.h"
#include "quant/uniform.h"

namespace cq::quant {
namespace {

TEST(Uniform, LevelsForBits) {
  EXPECT_EQ(levels_for_bits(0), 1);
  EXPECT_EQ(levels_for_bits(1), 2);
  EXPECT_EQ(levels_for_bits(4), 16);
  EXPECT_EQ(levels_for_bits(-3), 1);
}

TEST(Uniform, ZeroBitsPrunesToZero) {
  const UniformRange r{-1.0f, 1.0f};
  EXPECT_EQ(quantize_one(0.73f, r, 0), 0.0f);
}

TEST(Uniform, OneBitIsBinary) {
  const UniformRange r{-2.0f, 2.0f};
  EXPECT_FLOAT_EQ(quantize_one(0.5f, r, 1), 2.0f);   // rounds up to hi
  EXPECT_FLOAT_EQ(quantize_one(-0.5f, r, 1), -2.0f); // rounds down to lo
  EXPECT_FLOAT_EQ(quantize_one(1.9f, r, 1), 2.0f);
}

TEST(Uniform, ClipsOutOfRange) {
  const UniformRange r{-1.0f, 1.0f};
  EXPECT_FLOAT_EQ(quantize_one(5.0f, r, 4), 1.0f);
  EXPECT_FLOAT_EQ(quantize_one(-5.0f, r, 4), -1.0f);
}

TEST(Uniform, EndpointsAreExactlyRepresentable) {
  const UniformRange r{-1.5f, 1.5f};
  for (int bits = 1; bits <= 8; ++bits) {
    EXPECT_FLOAT_EQ(quantize_one(r.lo, r, bits), r.lo) << "bits=" << bits;
    EXPECT_FLOAT_EQ(quantize_one(r.hi, r, bits), r.hi) << "bits=" << bits;
  }
}

TEST(Uniform, QuantizationIsIdempotent) {
  const UniformRange r{-1.0f, 1.0f};
  for (int bits = 1; bits <= 6; ++bits) {
    const float q = quantize_one(0.3777f, r, bits);
    EXPECT_FLOAT_EQ(quantize_one(q, r, bits), q) << "bits=" << bits;
  }
}

TEST(Uniform, ErrorBoundedByHalfStep) {
  const UniformRange r{-1.0f, 1.0f};
  for (int bits = 2; bits <= 8; ++bits) {
    const float bound = max_quantization_error(r, bits) + 1e-6f;
    for (float x = -1.0f; x <= 1.0f; x += 0.01f) {
      const float q = quantize_one(x, r, bits);
      EXPECT_LE(std::fabs(q - x), bound) << "bits=" << bits << " x=" << x;
    }
  }
}

TEST(Uniform, ErrorBoundShrinksWithBits) {
  // Per-value error is not monotone in bits (grids do not nest), but
  // the worst-case bound halves with every added bit.
  const UniformRange r{-1.0f, 1.0f};
  float prev = max_quantization_error(r, 1);
  for (int bits = 2; bits <= 8; ++bits) {
    const float bound = max_quantization_error(r, bits);
    EXPECT_LT(bound, prev) << "bits=" << bits;
    prev = bound;
  }
}

TEST(Uniform, QuantizeSpanMatchesScalar) {
  const UniformRange r{-2.0f, 2.0f};
  const std::vector<float> src = {-3.0f, -1.2f, 0.0f, 0.7f, 2.5f};
  std::vector<float> dst(src.size());
  quantize_span(src, dst, r, 3);
  for (std::size_t i = 0; i < src.size(); ++i) {
    EXPECT_FLOAT_EQ(dst[i], quantize_one(src[i], r, 3));
  }
}

TEST(Uniform, QuantizeSpanZeroBitsZeroes) {
  const std::vector<float> src = {1.0f, -2.0f};
  std::vector<float> dst(2, 99.0f);
  quantize_span(src, dst, UniformRange{-2.0f, 2.0f}, 0);
  EXPECT_EQ(dst[0], 0.0f);
  EXPECT_EQ(dst[1], 0.0f);
}

TEST(Uniform, SymmetricRange) {
  const std::vector<float> w = {0.5f, -1.25f, 0.3f};
  const UniformRange r = symmetric_range(w);
  EXPECT_FLOAT_EQ(r.lo, -1.25f);
  EXPECT_FLOAT_EQ(r.hi, 1.25f);
  EXPECT_TRUE(r.valid());
  const UniformRange zero = symmetric_range(std::vector<float>{0.0f, 0.0f});
  EXPECT_FALSE(zero.valid());
}

TEST(Uniform, EncodeDecodeRoundTrip) {
  const UniformRange r{-1.0f, 1.0f};
  for (int bits = 1; bits <= 8; ++bits) {
    const int levels = levels_for_bits(bits);
    for (int q = 0; q < levels; ++q) {
      const float x = decode(q, r, bits);
      EXPECT_EQ(encode(x, r, bits), q) << "bits=" << bits << " q=" << q;
    }
  }
}

TEST(Uniform, EncodeMatchesQuantize) {
  const UniformRange r{0.0f, 4.0f};
  for (float x = 0.0f; x <= 4.0f; x += 0.37f) {
    const float via_codes = decode(encode(x, r, 3), r, 3);
    EXPECT_NEAR(via_codes, quantize_one(x, r, 3), 1e-5f);
  }
}

// round_code is the one rounding helper every encode site shares; it
// must equal std::round at the values where rounding turns: integers,
// exact half steps up to 2^16, and the largest float below each half
// step (which must round down).
TEST(Uniform, RoundCodeMatchesStdRound) {
  std::vector<float> probes = {0.0f, 0.5f, 1.5f, 2.5f, 65535.0f, 65534.5f, 1e-30f};
  for (int k = 1; k <= 16; ++k) probes.push_back(std::ldexp(1.0f, k) - 0.5f);
  for (int k = 0; k < 65535; k += 997) probes.push_back(static_cast<float>(k) + 0.5f);
  const std::size_t halves = probes.size();
  for (std::size_t i = 0; i < halves; ++i) {
    probes.push_back(std::nextafter(probes[i], 0.0f));
    probes.push_back(std::nextafter(probes[i], 65536.0f));
  }
  for (const float x : probes) {
    EXPECT_EQ(static_cast<std::int32_t>(std::round(x)), round_code(x)) << x;
  }
}

// NaN takes the clamp, never the float-to-int conversion: activation
// encodes map it to code 0 (activation 0.0), quant::encode to the low
// end of the range, while quantize_one keeps propagating it (training).
TEST(Uniform, NanEncodesToCodeZero) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(0, activation_code(nan, 0.9f, 3.0f / 0.9f));
  EXPECT_EQ(0, activation_code(-inf, 0.9f, 3.0f / 0.9f));
  EXPECT_EQ(0, activation_code(-0.0f, 0.9f, 3.0f / 0.9f));
  EXPECT_EQ(3, activation_code(inf, 0.9f, 3.0f / 0.9f));
  const UniformRange r{-1.0f, 1.0f};
  EXPECT_EQ(0, encode(nan, r, 4));
  EXPECT_EQ(15, encode(inf, r, 4));
  EXPECT_TRUE(std::isnan(quantize_one(nan, r, 4)));
  float out = 0.0f;
  quantize_span({&nan, 1}, {&out, 1}, UniformRange{0.0f, 1.0f}, 2);
  EXPECT_TRUE(std::isnan(out));
}

TEST(BitArrangement, AverageBitsWeighted) {
  BitArrangement arr;
  // Layer A: 2 filters x 10 weights at 4 and 0 bits.
  arr.add_layer({"a", {4, 0}, 10});
  // Layer B: 1 filter x 20 weights at 2 bits.
  arr.add_layer({"b", {2}, 20});
  // (4*10 + 0*10 + 2*20) / 40 = 2.0
  EXPECT_DOUBLE_EQ(arr.average_bits(), 2.0);
  EXPECT_EQ(arr.total_weights(), 40u);
}

TEST(BitArrangement, CountsByBits) {
  BitArrangement arr;
  arr.add_layer({"a", {4, 0, 4}, 5});
  EXPECT_EQ(arr.weights_with_bits(4), 10u);
  EXPECT_EQ(arr.weights_with_bits(0), 5u);
  EXPECT_EQ(arr.weights_with_bits(2), 0u);
  EXPECT_EQ(arr.filters_with_bits(4), 2u);
  EXPECT_EQ(arr.max_bits(), 4);
}

TEST(BitArrangement, EmptyIsZero) {
  const BitArrangement arr;
  EXPECT_DOUBLE_EQ(arr.average_bits(), 0.0);
  EXPECT_EQ(arr.total_weights(), 0u);
  EXPECT_EQ(arr.max_bits(), 0);
}

class QuantBitsSweep : public testing::TestWithParam<int> {};

TEST_P(QuantBitsSweep, ValuesLandOnGrid) {
  const int bits = GetParam();
  const UniformRange r{-1.0f, 1.0f};
  const int levels = levels_for_bits(bits);
  const float step = (r.hi - r.lo) / static_cast<float>(levels - 1);
  for (float x = -1.3f; x <= 1.3f; x += 0.071f) {
    const float q = quantize_one(x, r, bits);
    const float k = (q - r.lo) / step;
    EXPECT_NEAR(k, std::round(k), 1e-4f) << "bits=" << bits << " x=" << x;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBitWidths, QuantBitsSweep, testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace cq::quant
