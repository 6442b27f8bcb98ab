#include "nn/models/mlp.h"

namespace cq::nn {

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
  util::Rng rng(config_.seed);
  build(&rng);
}

Mlp::Mlp(MlpConfig config, StructureOnly) : config_(std::move(config)) { build(nullptr); }

void Mlp::build(util::Rng* rng) {
  int in = config_.in_features;
  for (std::size_t h = 0; h < config_.hidden.size(); ++h) {
    const int out = config_.hidden[h];
    const std::string layer_name = "fc" + std::to_string(h);
    Linear* fc = body_.emplace<Linear>(in, out, rng, layer_name);
    body_.emplace<ReLU>();
    Probe* probe = body_.emplace<Probe>(layer_name + ".probe");
    ActQuant* aq = body_.emplace<ActQuant>(layer_name + ".aq");
    act_quants_.push_back(aq);
    if (h > 0) {
      // The first layer is excluded from quantization (Section IV).
      scored_.push_back({layer_name, {fc}, probe, /*is_conv=*/false, aq});
    }
    in = out;
  }
  body_.emplace<Linear>(in, config_.num_classes, rng, "fc_out");
}

std::unique_ptr<Model> Mlp::clone() {
  auto copy = std::make_unique<Mlp>(config_);
  copy_state(*copy, *this);
  return copy;
}

}  // namespace cq::nn
