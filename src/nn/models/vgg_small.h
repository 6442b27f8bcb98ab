#pragma once

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/models/model.h"
#include "nn/pooling.h"

namespace cq::nn {

/// VGG-small configuration. Defaults are scaled to the repository's
/// single-CPU synthetic workloads; the layer *structure* matches the
/// network of the paper (5 conv + 3 hidden FC + output FC, so that the
/// seven quantized layers Layer-1..Layer-7 of Figures 2/6 exist, with
/// layer-5..7 fully connected as the paper describes).
struct VggSmallConfig {
  int in_channels = 3;
  int image_size = 16;  ///< square input, must be divisible by 8
  int num_classes = 10;
  int c1 = 16;   ///< widths of conv layers 0-1
  int c2 = 32;   ///< widths of conv layers 2-3
  int c3 = 64;   ///< width of conv layer 4
  int f1 = 128;  ///< FC layer 5
  int f2 = 96;   ///< FC layer 6
  int f3 = 64;   ///< FC layer 7
  std::uint64_t seed = 1;
};

/// VGG-small (adapted from [21] in the paper): conv-BN-ReLU stacks
/// with max pooling, then a fully-connected head. Layer-0 (first conv)
/// and the output FC are excluded from quantization; layers 1-7 are
/// the scored quantization targets.
class VggSmall : public Model {
 public:
  explicit VggSmall(VggSmallConfig config);
  VggSmall(VggSmallConfig config, StructureOnly);

  Tensor forward(const Tensor& input) override { return body_.forward(input); }
  Tensor backward(const Tensor& grad_output) override { return body_.backward(grad_output); }
  void collect_parameters(std::vector<Parameter*>& out) override {
    body_.collect_parameters(out);
  }
  void collect_buffers(std::vector<Tensor*>& out) override { body_.collect_buffers(out); }
  void set_training(bool training) override { body_.set_training(training); }
  std::string name() const override { return "VggSmall"; }

  std::vector<ScoredLayerRef> scored_layers() override { return scored_; }
  std::vector<ActQuant*> activation_quantizers() override { return act_quants_; }
  std::unique_ptr<Model> clone() override;

  const VggSmallConfig& config() const { return config_; }
  /// Module chain of the network (used by nn::fold_batchnorm).
  Sequential& body() { return body_; }

 private:
  /// Adds every layer, drawing initial weights from `rng` (null: none).
  void build(util::Rng* rng);
  /// Adds conv-BN-ReLU-probe-actquant; returns the conv for scoring.
  Conv2d* add_conv_block(int in_c, int out_c, const std::string& name, util::Rng* rng,
                         Probe** probe_out);

  VggSmallConfig config_;
  Sequential body_;
  std::vector<ScoredLayerRef> scored_;
  std::vector<ActQuant*> act_quants_;
};

}  // namespace cq::nn
