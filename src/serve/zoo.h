#pragma once

// The built-in model zoo: deployable artifacts fabricated without
// training, for daemons, benches, tools and tests that need real
// integer plans but no checkpoint — `cq_serve --zoo`,
// `cqar_verify --zoo`, and the plan_compile / plan_optimize /
// plan_profile benches all serve the same three models from here.

#include <cstdint>
#include <string>
#include <vector>

#include "deploy/artifact.h"
#include "nn/models/model.h"
#include "tensor/tensor.h"

namespace cq::serve {

/// Gives `model` a deployable state without training — activation
/// quantizers calibrated on uniform [0, 1) inputs of shape `in`,
/// `act_bits`-bit activations, and a mixed per-filter bit arrangement
/// including pruned (0-bit) filters — then exports it.
deploy::QuantizedArtifact fabricate_artifact(nn::Model& model, const tensor::Shape& in,
                                             int act_bits, std::uint64_t seed);

/// One zoo entry: the name `cq_serve --zoo` serves it under.
struct ZooModel {
  std::string name;
  deploy::QuantizedArtifact artifact;
};

/// The default-size zoo — VggSmall, Mlp and ResNet20 at their config
/// defaults, 3-bit activations — named "vgg_small", "mlp", "resnet20".
std::vector<ZooModel> default_zoo();

/// A seeded [n, ...sample] batch drawn uniformly from [-0.2, 1.2), so
/// inputs land on both sides of the activation clip range.
tensor::Tensor random_batch(const tensor::Shape& sample, int n, std::uint64_t seed);

}  // namespace cq::serve
