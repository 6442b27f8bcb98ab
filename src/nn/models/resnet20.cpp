#include "nn/models/resnet20.h"

namespace cq::nn {

BasicBlock::BasicBlock(int in_channels, int out_channels, int stride, util::Rng* rng,
                       std::string name)
    : name_(std::move(name)) {
  conv1_ = std::make_unique<Conv2d>(in_channels, out_channels, 3, stride, 1, rng,
                                    name_ + ".conv1");
  bn1_ = std::make_unique<BatchNorm2d>(out_channels, 0.1f, 1e-5f, name_ + ".bn1");
  relu1_ = std::make_unique<ReLU>();
  probe1_ = std::make_unique<Probe>(name_ + ".probe1");
  aq1_ = std::make_unique<ActQuant>(name_ + ".aq1");
  conv2_ = std::make_unique<Conv2d>(out_channels, out_channels, 3, 1, 1, rng,
                                    name_ + ".conv2");
  bn2_ = std::make_unique<BatchNorm2d>(out_channels, 0.1f, 1e-5f, name_ + ".bn2");
  if (stride != 1 || in_channels != out_channels) {
    down_conv_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0, rng,
                                          name_ + ".down");
    down_bn_ = std::make_unique<BatchNorm2d>(out_channels, 0.1f, 1e-5f, name_ + ".down_bn");
  }
  relu2_ = std::make_unique<ReLU>();
  probe2_ = std::make_unique<Probe>(name_ + ".probe2");
  aq2_ = std::make_unique<ActQuant>(name_ + ".aq2");
}

Tensor BasicBlock::forward(const Tensor& input) {
  Tensor h = aq1_->forward(probe1_->forward(relu1_->forward(bn1_->forward(conv1_->forward(input)))));
  Tensor main = bn2_->forward(conv2_->forward(h));
  Tensor shortcut =
      down_conv_ ? down_bn_->forward(down_conv_->forward(input)) : input;
  main += shortcut;
  return aq2_->forward(probe2_->forward(relu2_->forward(main)));
}

Tensor BasicBlock::backward(const Tensor& grad_output) {
  Tensor g = relu2_->backward(probe2_->backward(aq2_->backward(grad_output)));
  // Main branch.
  Tensor g_main = conv1_->backward(bn1_->backward(relu1_->backward(
      probe1_->backward(aq1_->backward(conv2_->backward(bn2_->backward(g)))))));
  // Shortcut branch.
  if (down_conv_) {
    Tensor g_short = down_conv_->backward(down_bn_->backward(g));
    g_main += g_short;
    return g_main;
  }
  g_main += g;
  return g_main;
}

void BasicBlock::collect_parameters(std::vector<Parameter*>& out) {
  conv1_->collect_parameters(out);
  bn1_->collect_parameters(out);
  conv2_->collect_parameters(out);
  bn2_->collect_parameters(out);
  if (down_conv_) {
    down_conv_->collect_parameters(out);
    down_bn_->collect_parameters(out);
  }
}

void BasicBlock::collect_buffers(std::vector<Tensor*>& out) {
  bn1_->collect_buffers(out);
  bn2_->collect_buffers(out);
  if (down_bn_) down_bn_->collect_buffers(out);
}

void BasicBlock::set_training(bool training) {
  Module::set_training(training);
  bn1_->set_training(training);
  bn2_->set_training(training);
  if (down_bn_) down_bn_->set_training(training);
}

void BasicBlock::set_exec_context(const util::ExecContext& exec) {
  conv1_->set_exec_context(exec);
  conv2_->set_exec_context(exec);
  if (down_conv_) down_conv_->set_exec_context(exec);
}

ResNet20::ResNet20(ResNet20Config config) : config_(std::move(config)) {
  util::Rng rng(config_.seed);
  build(&rng);
}

ResNet20::ResNet20(ResNet20Config config, StructureOnly) : config_(std::move(config)) {
  build(nullptr);
}

void ResNet20::build(util::Rng* rng) {
  const int w1 = config_.base_width * config_.expand;
  const int w2 = 2 * w1;
  const int w3 = 4 * w1;

  // Stem: first layer, never quantized.
  body_.emplace<Conv2d>(config_.in_channels, w1, 3, 1, 1, rng, "stem");
  body_.emplace<BatchNorm2d>(w1, 0.1f, 1e-5f, "stem.bn");
  body_.emplace<ReLU>();
  act_quants_.push_back(body_.emplace<ActQuant>("stem.aq"));

  const int widths[3] = {w1, w2, w3};
  int in_c = w1;
  for (int stage = 0; stage < 3; ++stage) {
    for (int block = 0; block < 3; ++block) {
      const int stride = (stage > 0 && block == 0) ? 2 : 1;
      const std::string block_name =
          "s" + std::to_string(stage + 1) + "b" + std::to_string(block + 1);
      BasicBlock* bb =
          body_.emplace<BasicBlock>(in_c, widths[stage], stride, rng, block_name);
      act_quants_.push_back(bb->act_quant1());
      act_quants_.push_back(bb->act_quant2());
      scored_.push_back(
          {block_name + ".conv1", {bb->conv1()}, bb->probe1(), true, bb->act_quant1()});
      ScoredLayerRef second{block_name + ".conv2", {bb->conv2()}, bb->probe2(), true,
                            bb->act_quant2()};
      if (bb->downsample_conv() != nullptr) {
        second.layers.push_back(bb->downsample_conv());
      }
      scored_.push_back(std::move(second));
      in_c = widths[stage];
    }
  }

  body_.emplace<GlobalAvgPool>();
  // Output layer, never quantized.
  body_.emplace<Linear>(w3, config_.num_classes, rng, "fc_out");
}

Tensor ResNet20::forward(const Tensor& input) { return body_.forward(input); }

Tensor ResNet20::backward(const Tensor& grad_output) { return body_.backward(grad_output); }

void ResNet20::collect_parameters(std::vector<Parameter*>& out) {
  body_.collect_parameters(out);
}

void ResNet20::collect_buffers(std::vector<Tensor*>& out) { body_.collect_buffers(out); }

void ResNet20::set_training(bool training) {
  Module::set_training(training);
  body_.set_training(training);
}

std::unique_ptr<Model> ResNet20::clone() {
  auto copy = std::make_unique<ResNet20>(config_);
  copy_state(*copy, *this);
  return copy;
}

}  // namespace cq::nn
