#include "serve/zoo.h"

#include <utility>

#include "nn/models/mlp.h"
#include "nn/models/resnet20.h"
#include "nn/models/vgg_small.h"
#include "util/rng.h"

namespace cq::serve {

deploy::QuantizedArtifact fabricate_artifact(nn::Model& model, const tensor::Shape& in,
                                             int act_bits, std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Shape calib_shape;
  calib_shape.push_back(32);
  calib_shape.insert(calib_shape.end(), in.begin(), in.end());
  model.calibrate_activations(
      tensor::Tensor::rand_uniform(calib_shape, rng, 0.0f, 1.0f));
  model.set_activation_bits(act_bits);
  const int pattern[7] = {2, 3, 1, 4, 2, 0, 2};
  int i = 0;
  for (const nn::ScoredLayerRef& ref : model.scored_layers()) {
    for (quant::QuantizableLayer* layer : ref.layers) {
      std::vector<int> bits(static_cast<std::size_t>(layer->num_filters()));
      for (int& b : bits) b = pattern[i++ % 7];
      layer->set_filter_bits(std::move(bits));
    }
  }
  return deploy::export_model(model);
}

std::vector<ZooModel> default_zoo() {
  std::vector<ZooModel> zoo;
  {
    const nn::VggSmallConfig cfg;
    nn::VggSmall vgg(cfg);
    zoo.push_back({"vgg_small",
                   fabricate_artifact(
                       vgg, {cfg.in_channels, cfg.image_size, cfg.image_size}, 3, 5)});
  }
  {
    const nn::MlpConfig cfg;
    nn::Mlp mlp(cfg);
    zoo.push_back({"mlp", fabricate_artifact(mlp, {cfg.in_features}, 3, 3)});
  }
  {
    const nn::ResNet20Config cfg;
    nn::ResNet20 resnet(cfg);
    zoo.push_back({"resnet20",
                   fabricate_artifact(
                       resnet, {cfg.in_channels, cfg.image_size, cfg.image_size}, 3, 7)});
  }
  return zoo;
}

tensor::Tensor random_batch(const tensor::Shape& sample, int n, std::uint64_t seed) {
  util::Rng rng(seed);
  tensor::Shape shape;
  shape.push_back(n);
  shape.insert(shape.end(), sample.begin(), sample.end());
  return tensor::Tensor::rand_uniform(shape, rng, -0.2f, 1.2f);
}

}  // namespace cq::serve
