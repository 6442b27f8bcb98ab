#include "nn/models/vgg_small.h"

#include <stdexcept>

namespace cq::nn {

Conv2d* VggSmall::add_conv_block(int in_c, int out_c, const std::string& name,
                                 util::Rng* rng, Probe** probe_out) {
  Conv2d* conv = body_.emplace<Conv2d>(in_c, out_c, 3, 1, 1, rng, name);
  body_.emplace<BatchNorm2d>(out_c, 0.1f, 1e-5f, name + ".bn");
  body_.emplace<ReLU>();
  *probe_out = body_.emplace<Probe>(name + ".probe");
  act_quants_.push_back(body_.emplace<ActQuant>(name + ".aq"));
  return conv;
}

VggSmall::VggSmall(VggSmallConfig config) : config_(std::move(config)) {
  util::Rng rng(config_.seed);
  build(&rng);
}

VggSmall::VggSmall(VggSmallConfig config, StructureOnly) : config_(std::move(config)) {
  build(nullptr);
}

void VggSmall::build(util::Rng* rng) {
  if (config_.image_size % 8 != 0) {
    throw std::invalid_argument("VggSmall: image_size must be divisible by 8");
  }
  Probe* probe = nullptr;

  // Layer-0: first conv, never quantized (Section IV).
  add_conv_block(config_.in_channels, config_.c1, "conv0", rng, &probe);

  // Layer-1.
  Conv2d* conv1 = add_conv_block(config_.c1, config_.c1, "conv1", rng, &probe);
  scored_.push_back({"conv1", {conv1}, probe, true, act_quants_.back()});
  body_.emplace<MaxPool2d>(2);

  // Layer-2.
  Conv2d* conv2 = add_conv_block(config_.c1, config_.c2, "conv2", rng, &probe);
  scored_.push_back({"conv2", {conv2}, probe, true, act_quants_.back()});

  // Layer-3.
  Conv2d* conv3 = add_conv_block(config_.c2, config_.c2, "conv3", rng, &probe);
  scored_.push_back({"conv3", {conv3}, probe, true, act_quants_.back()});
  body_.emplace<MaxPool2d>(2);

  // Layer-4.
  Conv2d* conv4 = add_conv_block(config_.c2, config_.c3, "conv4", rng, &probe);
  scored_.push_back({"conv4", {conv4}, probe, true, act_quants_.back()});
  body_.emplace<MaxPool2d>(2);

  body_.emplace<Flatten>();
  const int spatial = config_.image_size / 8;
  const int flat = config_.c3 * spatial * spatial;

  // Layers 5-7: hidden fully-connected layers.
  const int fc_dims[3] = {config_.f1, config_.f2, config_.f3};
  int in = flat;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "fc" + std::to_string(5 + i);
    Linear* fc = body_.emplace<Linear>(in, fc_dims[i], rng, name);
    body_.emplace<ReLU>();
    Probe* fc_probe = body_.emplace<Probe>(name + ".probe");
    act_quants_.push_back(body_.emplace<ActQuant>(name + ".aq"));
    scored_.push_back({name, {fc}, fc_probe, false, act_quants_.back()});
    in = fc_dims[i];
  }

  // Output layer, never quantized.
  body_.emplace<Linear>(in, config_.num_classes, rng, "fc_out");
}

std::unique_ptr<Model> VggSmall::clone() {
  auto copy = std::make_unique<VggSmall>(config_);
  copy_state(*copy, *this);
  return copy;
}

}  // namespace cq::nn
