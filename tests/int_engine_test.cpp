#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "deploy/int_engine.h"
#include "layer_fixtures.h"
#include "nn/act_quant.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "quant/uniform.h"
#include "util/rng.h"

namespace cq::deploy {
namespace {

using tensor::Tensor;

TEST(FilterRows, CodesMatchDirectEncoding) {
  util::Rng rng(2);
  nn::Linear layer(8, 4, rng);
  layer.set_filter_bits({4, 3, 0, 2});
  const PackedLayer packed = pack_layer(layer, "fc");
  const std::vector<std::int32_t> codes = decode_rows(packed);

  const quant::UniformRange range{-packed.range_hi, packed.range_hi};
  for (int k = 0; k < 4; ++k) {
    const int b = layer.filter_bits()[static_cast<std::size_t>(k)];
    const auto weights = layer.filter_weights(k);
    for (int j = 0; j < 8; ++j) {
      const std::int32_t code = codes[static_cast<std::size_t>(k) * 8 + j];
      if (b == 0) {
        EXPECT_EQ(code, 0);
      } else {
        EXPECT_EQ(code, quant::encode(weights[static_cast<std::size_t>(j)], range, b));
      }
    }
  }
  // A reader started at any filter sees that filter's row onward.
  std::vector<std::int32_t> row(8);
  for (std::int32_t first = 0; first < 4; ++first) {
    FilterRows rows(packed, first);
    for (std::int32_t k = first; k < 4; ++k) {
      rows.read(row);
      for (int j = 0; j < 8; ++j) {
        EXPECT_EQ(row[static_cast<std::size_t>(j)],
                  codes[static_cast<std::size_t>(k) * 8 + j])
            << "first " << first << " filter " << k;
      }
    }
    EXPECT_THROW(rows.read(row), std::invalid_argument);  // past the last filter
  }
  // Skipping a filter lands the reader on the next one's row.
  FilterRows alternate(packed);
  for (std::int32_t k = 0; k < 4; ++k) {
    if (k % 2 == 0) {
      alternate.skip();
      continue;
    }
    alternate.read(row);
    for (int j = 0; j < 8; ++j) {
      EXPECT_EQ(row[static_cast<std::size_t>(j)], codes[static_cast<std::size_t>(k) * 8 + j]);
    }
  }
  EXPECT_THROW(alternate.skip(), std::invalid_argument);
  EXPECT_THROW(FilterRows(packed, 5), std::invalid_argument);
  EXPECT_THROW(FilterRows(packed).read(std::span<std::int32_t>(row).first(7)),
               std::invalid_argument);
}

TEST(FilterRows, ReconstructedWeightsMatchDecode) {
  util::Rng rng(3);
  nn::Linear layer(10, 5, rng);
  layer.set_filter_bits({4, 0, 2, 1, 3});
  const IntegerLayer integer{pack_layer(layer, "fc"), std::vector<float>(5, 0.0f)};
  const std::vector<std::int32_t> codes = decode_rows(integer);

  const quant::UniformRange range{-integer.range_hi, integer.range_hi};
  for (int k = 0; k < 5; ++k) {
    const int b = integer.filter_bits[static_cast<std::size_t>(k)];
    for (int j = 0; j < 10; ++j) {
      const std::int32_t q = codes[static_cast<std::size_t>(k) * 10 + j];
      if (b == 0) {
        // Pruned: no stored row, and a zero scale.
        EXPECT_EQ(q, 0);
        EXPECT_EQ(integer.weight_scale(k), 0.0f);
        continue;
      }
      const float reconstructed =
          integer.weight_scale(k) *
          static_cast<float>(2 * q - (quant::levels_for_bits(b) - 1));
      EXPECT_NEAR(reconstructed, quant::decode(q, range, b), 1e-6f)
          << "filter " << k << " weight " << j;
    }
  }
}

TEST(EncodeActivations, RejectsBadArguments) {
  const Tensor acts({2, 3});
  EXPECT_THROW(encode_activations(acts, 1.0f, 0), std::invalid_argument);
  EXPECT_THROW(encode_activations(acts, 1.0f, 17), std::invalid_argument);
  EXPECT_THROW(encode_activations(acts, 0.0f, 4), std::invalid_argument);
}

TEST(EncodeActivations, CodesStayInRangeAndRescaleBack) {
  util::Rng rng(4);
  Tensor acts = Tensor::rand_uniform({4, 16}, rng, -0.5f, 2.0f);
  const float hi = 1.5f;
  const int bits = 3;
  const ActCodes codes = encode_activations(acts, hi, bits);
  const quant::UniformRange range{0.0f, hi};
  for (std::size_t i = 0; i < acts.numel(); ++i) {
    EXPECT_GE(codes.codes[i], 0);
    EXPECT_LT(codes.codes[i], quant::levels_for_bits(bits));
    const float rescaled = codes.scale * static_cast<float>(codes.codes[i]);
    EXPECT_NEAR(rescaled, quant::quantize_one(acts[i], range, bits), 1e-6f);
  }
}

TEST(IntegerForward, RejectsGeometryMismatch) {
  util::Rng rng(5);
  nn::Linear layer(6, 2, rng);
  layer.set_filter_bits({2, 2});
  const IntegerLayer integer{pack_layer(layer, "fc"), {0.0f, 0.0f}};
  ActCodes acts;
  acts.codes.assign(12, 0);
  acts.scale = 0.1f;
  EXPECT_THROW(integer_linear_forward(integer, acts, 2, 7), std::invalid_argument);
  EXPECT_THROW(integer_linear_forward(integer, acts, 3, 6), std::invalid_argument);
}

TEST(IntegerForward, PrunedFiltersOutputHardZeroIgnoringBias) {
  util::Rng rng(6);
  nn::Linear layer(5, 2, rng);
  layer.set_filter_bits({0, 2});
  const IntegerLayer integer{pack_layer(layer, "fc"), {7.5f, 0.25f}};
  ActCodes acts;
  acts.codes.assign(5, 3);
  acts.scale = 0.2f;
  acts.bits = 2;
  const Tensor out = integer_linear_forward(integer, acts, 1, 5);
  EXPECT_EQ(out.at(0, 0), 0.0f);   // pruned: bias suppressed
  EXPECT_NE(out.at(0, 1), 0.0f);
}

/// The headline property: the integer MAC pipeline reproduces the
/// float fake-quant forward (quantized weights x quantized
/// activations) within float-accumulation tolerance, at every
/// bit-width combination.
class IntegerEquivalence : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(IntegerEquivalence, MatchesFakeQuantLinearForward) {
  const auto [weight_bits, act_bits] = GetParam();
  util::Rng rng(100 + static_cast<std::uint64_t>(weight_bits) * 16 + act_bits);
  const int in = 24;
  const int out_features = 10;
  const int batch = 5;

  nn::Linear layer(in, out_features, rng, "fc");
  std::vector<int> bits(out_features, weight_bits);
  bits[3] = 0;  // one pruned filter in the mix
  layer.set_filter_bits(bits);

  // Positive activations (post-ReLU), quantized by ActQuant.
  Tensor raw = Tensor::rand_uniform({batch, in}, rng, 0.0f, 1.2f);
  nn::ActQuant aq("aq");
  aq.set_max_activation(1.2f);
  aq.set_bits(act_bits);
  aq.set_training(false);
  const Tensor acts_q = aq.forward(raw);

  // Reference: float fake-quant forward on the quantized activations.
  layer.set_training(false);
  const Tensor reference = layer.forward(acts_q);

  // Integer path: packed codes + activation codes + integer MACs.
  const PackedLayer packed = pack_layer(layer, "fc");
  std::vector<float> bias(static_cast<std::size_t>(out_features));
  for (int k = 0; k < out_features; ++k) bias[static_cast<std::size_t>(k)] =
      layer.bias().value[static_cast<std::size_t>(k)];
  const IntegerLayer integer{packed, std::move(bias)};
  const ActCodes codes = encode_activations(raw, 1.2f, act_bits);
  const Tensor result = integer_linear_forward(integer, codes, batch, in);

  ASSERT_EQ(result.shape(), reference.shape());
  for (std::size_t i = 0; i < result.numel(); ++i) {
    EXPECT_NEAR(result[i], reference[i], 1e-3f)
        << "w" << weight_bits << "a" << act_bits << " output " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    BitCombos, IntegerEquivalence,
    ::testing::Values(std::pair{1, 2}, std::pair{2, 2}, std::pair{2, 4}, std::pair{3, 3},
                      std::pair{4, 4}, std::pair{4, 8}, std::pair{8, 8}));

TEST(IntegerConv, RejectsGeometryMismatch) {
  util::Rng rng(31);
  nn::Conv2d conv(3, 4, 3, 1, 1, rng);
  conv.set_filter_bits({2, 2, 2, 2});
  const IntegerLayer integer{pack_layer(conv, "conv"), std::vector<float>(4, 0.0f)};
  ActCodes acts;
  acts.codes.assign(3 * 8 * 8, 1);
  acts.scale = 0.1f;
  // Wrong channel count: weights_per_filter is 3*3*3 = 27, not 4*9.
  EXPECT_THROW(integer_conv_forward(integer, acts, 1, 4, 8, 8, 3, 1, 1),
               std::invalid_argument);
  // Wrong activation volume for the declared geometry.
  EXPECT_THROW(integer_conv_forward(integer, acts, 2, 3, 8, 8, 3, 1, 1),
               std::invalid_argument);
}

class IntegerConvEquivalence : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(IntegerConvEquivalence, MatchesFakeQuantConvForward) {
  const auto [stride, pad] = GetParam();
  util::Rng rng(40 + static_cast<std::uint64_t>(stride) * 4 + pad);
  const int in_c = 3;
  const int out_c = 6;
  const int kernel = 3;
  const int h = 8;
  const int w = 8;
  const int batch = 2;

  nn::Conv2d conv(in_c, out_c, kernel, stride, pad, rng, "conv");
  conv.set_filter_bits({4, 3, 2, 1, 0, 4});

  Tensor raw = Tensor::rand_uniform({batch, in_c, h, w}, rng, 0.0f, 1.0f);
  nn::ActQuant aq("aq");
  aq.set_max_activation(1.0f);
  aq.set_bits(3);
  aq.set_training(false);
  const Tensor acts_q = aq.forward(raw);

  conv.set_training(false);
  const Tensor reference = conv.forward(acts_q);

  const PackedLayer packed = pack_layer(conv, "conv");
  std::vector<float> bias(static_cast<std::size_t>(out_c));
  for (int k = 0; k < out_c; ++k) bias[static_cast<std::size_t>(k)] =
      conv.bias().value[static_cast<std::size_t>(k)];
  const IntegerLayer integer{packed, std::move(bias)};
  const ActCodes codes = encode_activations(raw, 1.0f, 3);
  const Tensor result =
      integer_conv_forward(integer, codes, batch, in_c, h, w, kernel, stride, pad);

  ASSERT_EQ(result.shape(), reference.shape());
  for (std::size_t i = 0; i < result.numel(); ++i) {
    EXPECT_NEAR(result[i], reference[i], 2e-3f)
        << "stride " << stride << " pad " << pad << " output " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Geometries, IntegerConvEquivalence,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 0},
                                           std::pair{2, 1}, std::pair{2, 0}));

TEST(IntegerForward, MixedPerFilterBitsAlsoMatch) {
  util::Rng rng(77);
  const int in = 16;
  nn::Linear layer(in, 6, rng, "fc");
  layer.set_filter_bits({4, 3, 2, 1, 0, 4});

  Tensor raw = Tensor::rand_uniform({3, in}, rng, 0.0f, 0.9f);
  nn::ActQuant aq("aq");
  aq.set_max_activation(0.9f);
  aq.set_bits(3);
  aq.set_training(false);
  const Tensor acts_q = aq.forward(raw);
  layer.set_training(false);
  const Tensor reference = layer.forward(acts_q);

  const PackedLayer packed = pack_layer(layer, "fc");
  std::vector<float> bias(6);
  for (int k = 0; k < 6; ++k) bias[static_cast<std::size_t>(k)] =
      layer.bias().value[static_cast<std::size_t>(k)];
  const IntegerLayer integer{packed, std::move(bias)};
  const ActCodes codes = encode_activations(raw, 0.9f, 3);
  const Tensor result = integer_linear_forward(integer, codes, 3, in);
  for (std::size_t i = 0; i < result.numel(); ++i) {
    EXPECT_NEAR(result[i], reference[i], 1e-3f) << "output " << i;
  }
}

}  // namespace
}  // namespace cq::deploy
