#pragma once

// Shared serving fixtures: tiny model-zoo artifacts fabricated without
// training by serve::fabricate_artifact (calibrated activation
// quantizers + a mixed per-filter bit pattern including pruned
// filters). Used by the serving, plan, backend and verifier suites so
// they all exercise the exact same deployment payloads; the
// default-size zoo lives in serve/zoo.h.

#include "deploy/artifact.h"
#include "nn/models/mlp.h"
#include "nn/models/resnet20.h"
#include "nn/models/vgg_small.h"
#include "serve/zoo.h"

namespace cq::serve {

inline deploy::QuantizedArtifact tiny_vgg_artifact() {
  nn::VggSmallConfig cfg;
  cfg.image_size = 8;
  cfg.num_classes = 4;
  cfg.c1 = 4;
  cfg.c2 = 6;
  cfg.c3 = 8;
  cfg.f1 = 24;
  cfg.f2 = 16;
  cfg.f3 = 12;
  nn::VggSmall model(cfg);
  return fabricate_artifact(model, {3, 8, 8}, 3, 11);
}

inline deploy::QuantizedArtifact tiny_mlp_artifact() {
  nn::MlpConfig cfg;
  cfg.in_features = 12;
  cfg.hidden = {20, 16, 14};
  cfg.num_classes = 5;
  nn::Mlp model(cfg);
  return fabricate_artifact(model, {12}, 4, 13);
}

inline deploy::QuantizedArtifact tiny_resnet_artifact() {
  nn::ResNet20Config cfg;
  cfg.image_size = 8;
  cfg.num_classes = 4;
  cfg.base_width = 4;
  nn::ResNet20 model(cfg);
  return fabricate_artifact(model, {3, 8, 8}, 3, 17);
}

/// The default zoo's vgg_small. Its one-sample forward on the default
/// scalar backend takes about a millisecond in Release and far longer
/// under the sanitizers, so a burst of requests queues behind one busy
/// worker.
inline ZooModel slow_zoo_model() { return std::move(default_zoo().front()); }

}  // namespace cq::serve
