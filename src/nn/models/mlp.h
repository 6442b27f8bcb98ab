#pragma once

#include "nn/activations.h"
#include "nn/linear.h"
#include "nn/models/model.h"

namespace cq::nn {

/// Multilayer perceptron configuration.
struct MlpConfig {
  int in_features = 16;
  std::vector<int> hidden = {32, 32};
  int num_classes = 10;
  std::uint64_t seed = 1;
};

/// Plain MLP (Linear/ReLU stack) — the Figure-1 style network the
/// paper motivates the class-based neuron scores with, and the fast
/// vehicle for unit tests. The first hidden layer is the unquantized
/// "first layer"; the output layer is never quantized; every other
/// hidden layer is a scored quantization target.
class Mlp : public Model {
 public:
  explicit Mlp(MlpConfig config);
  Mlp(MlpConfig config, StructureOnly);

  Tensor forward(const Tensor& input) override { return body_.forward(input); }
  Tensor backward(const Tensor& grad_output) override { return body_.backward(grad_output); }
  void collect_parameters(std::vector<Parameter*>& out) override {
    body_.collect_parameters(out);
  }
  void collect_buffers(std::vector<Tensor*>& out) override { body_.collect_buffers(out); }
  void set_training(bool training) override { body_.set_training(training); }
  std::string name() const override { return "Mlp"; }

  std::vector<ScoredLayerRef> scored_layers() override { return scored_; }
  std::vector<ActQuant*> activation_quantizers() override { return act_quants_; }
  std::unique_ptr<Model> clone() override;

  const MlpConfig& config() const { return config_; }
  /// Module chain of the network (used by nn::fold_batchnorm).
  Sequential& body() { return body_; }

 private:
  /// Adds every layer, drawing initial weights from `rng` (null: none).
  void build(util::Rng* rng);

  MlpConfig config_;
  Sequential body_;
  std::vector<ScoredLayerRef> scored_;
  std::vector<ActQuant*> act_quants_;
};

}  // namespace cq::nn
