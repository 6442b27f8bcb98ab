#include <gtest/gtest.h>

#include "gradcheck.h"
#include "nn/models/resnet20.h"
#include "quant/uniform.h"

namespace cq::nn {
namespace {

TEST(BasicBlock, IdentityShortcutPreservesShape) {
  util::Rng rng(1);
  BasicBlock block(4, 4, 1, rng, "b");
  const Tensor y = block.forward(Tensor::randn({2, 4, 6, 6}, rng));
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 4, 6, 6}));
  EXPECT_EQ(block.downsample_conv(), nullptr);
}

TEST(BasicBlock, ProjectionShortcutDownsamples) {
  util::Rng rng(2);
  BasicBlock block(4, 8, 2, rng, "b");
  const Tensor y = block.forward(Tensor::randn({2, 4, 8, 8}, rng));
  EXPECT_EQ(y.shape(), (tensor::Shape{2, 8, 4, 4}));
  ASSERT_NE(block.downsample_conv(), nullptr);
  EXPECT_EQ(block.downsample_conv()->kernel(), 1);
  EXPECT_EQ(block.downsample_conv()->stride(), 2);
}

TEST(BasicBlock, ChannelChangeWithoutStrideAlsoProjects) {
  util::Rng rng(3);
  BasicBlock block(4, 6, 1, rng, "b");
  ASSERT_NE(block.downsample_conv(), nullptr);
  const Tensor y = block.forward(Tensor::randn({1, 4, 4, 4}, rng));
  EXPECT_EQ(y.shape(), (tensor::Shape{1, 6, 4, 4}));
}

TEST(BasicBlock, OutputIsNonNegativeAfterFinalRelu) {
  util::Rng rng(4);
  BasicBlock block(3, 3, 1, rng, "b");
  const Tensor y = block.forward(Tensor::randn({2, 3, 5, 5}, rng, 2.0f));
  for (std::size_t i = 0; i < y.numel(); ++i) EXPECT_GE(y[i], 0.0f);
}

TEST(BasicBlock, GradCheckIdentity) {
  util::Rng rng(5);
  BasicBlock block(2, 2, 1, rng, "b");
  const auto r = testutil::gradcheck(block, Tensor::randn({2, 2, 4, 4}, rng));
  EXPECT_LT(r.p95_input_error, 1e-2);
  EXPECT_LT(r.p95_param_error, 1e-2);
}

TEST(BasicBlock, GradCheckProjection) {
  util::Rng rng(6);
  BasicBlock block(2, 4, 2, rng, "b");
  const auto r = testutil::gradcheck(block, Tensor::randn({2, 2, 8, 8}, rng));
  EXPECT_LT(r.p95_input_error, 1e-2);
  EXPECT_LT(r.p95_param_error, 1e-2);
}

TEST(BasicBlock, ParametersIncludeProjection) {
  util::Rng rng(7);
  BasicBlock identity(4, 4, 1, rng, "a");
  BasicBlock projection(4, 8, 2, rng, "b");
  // conv1+bn1+conv2+bn2 = 8 params; projection adds conv+bn = 4 more.
  EXPECT_EQ(identity.parameters().size(), 8u);
  EXPECT_EQ(projection.parameters().size(), 12u);
}

TEST(BasicBlock, ProbesRecordBothStages) {
  util::Rng rng(8);
  BasicBlock block(3, 3, 1, rng, "b");
  block.probe1()->set_recording(true);
  block.probe2()->set_recording(true);
  const Tensor x = Tensor::randn({1, 3, 4, 4}, rng);
  const Tensor y = block.forward(x);
  EXPECT_EQ(block.probe1()->activation().shape(), (tensor::Shape{1, 3, 4, 4}));
  EXPECT_TRUE(block.probe2()->activation().allclose(y));
  block.backward(Tensor::ones(y.shape()));
  EXPECT_FALSE(block.probe1()->gradient().empty());
  EXPECT_FALSE(block.probe2()->gradient().empty());
}

TEST(BasicBlock, QuantizingConvsChangesOutput) {
  util::Rng rng(9);
  BasicBlock block(4, 4, 1, rng, "b");
  const Tensor x = Tensor::randn({1, 4, 4, 4}, rng);
  block.set_training(false);
  const Tensor y_fp = block.forward(x);
  block.conv1()->set_filter_bits({1, 1, 1, 1});
  block.conv2()->set_filter_bits({1, 1, 1, 1});
  const Tensor y_q = block.forward(x);
  EXPECT_FALSE(y_fp.allclose(y_q, 1e-4f));
}

// Integer engine agrees with the float fake-quant path when both
// operands sit exactly on their quantizer grids.
TEST(IntegerEngine, MatchesFloatOnGridValues) {
  const quant::UniformRange wr{-1.0f, 1.0f};
  const quant::UniformRange ar{0.0f, 2.0f};
  const int wbits = 3;
  const int abits = 4;
  util::Rng rng(10);
  const int k = 16;
  std::vector<float> w(k), a(k);
  std::vector<std::int32_t> wq(k), aq(k);
  for (int i = 0; i < k; ++i) {
    w[static_cast<std::size_t>(i)] = quant::quantize_one(
        static_cast<float>(rng.uniform(-1.0, 1.0)), wr, wbits);
    a[static_cast<std::size_t>(i)] = quant::quantize_one(
        static_cast<float>(rng.uniform(0.0, 2.0)), ar, abits);
    wq[static_cast<std::size_t>(i)] = quant::encode(w[static_cast<std::size_t>(i)], wr, wbits);
    aq[static_cast<std::size_t>(i)] = quant::encode(a[static_cast<std::size_t>(i)], ar, abits);
  }
  // Float dot product.
  double f = 0.0;
  for (int i = 0; i < k; ++i) f += static_cast<double>(w[static_cast<std::size_t>(i)]) *
                                   a[static_cast<std::size_t>(i)];
  // Integer dot product on codes, then affine correction:
  // w = sw*qw + wlo, a = sa*qa + alo.
  std::int64_t dot_qq = 0;
  std::int64_t sum_qw = 0;
  std::int64_t sum_qa = 0;
  for (int i = 0; i < k; ++i) {
    dot_qq += static_cast<std::int64_t>(wq[static_cast<std::size_t>(i)]) * aq[static_cast<std::size_t>(i)];
    sum_qw += wq[static_cast<std::size_t>(i)];
    sum_qa += aq[static_cast<std::size_t>(i)];
  }
  const double sw = (wr.hi - wr.lo) / static_cast<double>(quant::levels_for_bits(wbits) - 1);
  const double sa = (ar.hi - ar.lo) / static_cast<double>(quant::levels_for_bits(abits) - 1);
  const double reconstructed = sw * sa * static_cast<double>(dot_qq) +
                               sw * ar.lo * static_cast<double>(sum_qw) +
                               sa * wr.lo * static_cast<double>(sum_qa) +
                               static_cast<double>(k) * wr.lo * ar.lo;
  EXPECT_NEAR(reconstructed, f, 1e-4);
}

}  // namespace
}  // namespace cq::nn
