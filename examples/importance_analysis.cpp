// Importance-score analysis (the paper's Figure-1 concept made
// runnable): which neurons matter for which classes?
//
// Trains a network, collects the class-based scores, and prints
//  - per-layer distribution of "how many classes does a filter serve",
//  - the prunable filters (score ~ 0, paper: 0-bit candidates),
//  - the universal filters (score ~ M, needed by every class).
//
// Works on real CIFAR-10 binaries when --cifar_dir points at a
// directory with data_batch_1.bin / test_batch.bin; falls back to the
// synthetic corpus otherwise.
//
// Run: ./importance_analysis [--cifar_dir=/path/to/cifar-10-batches-bin]

#include <algorithm>
#include <climits>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/importance.h"
#include "data/cifar10.h"
#include "data/synthetic.h"
#include "nn/models/vgg_small.h"
#include "nn/trainer.h"
#include "util/cli.h"
#include "util/stats.h"

namespace {

cq::data::DataSplit load_data(const cq::util::Cli& cli, int* image_size) {
  using namespace cq;
  const std::string dir = cli.get("cifar_dir", "");
  if (!dir.empty()) {
    const std::string train_path = dir + "/data_batch_1.bin";
    const std::string test_path = dir + "/test_batch.bin";
    if (std::filesystem::exists(train_path) && data::is_cifar10_batch(train_path)) {
      std::printf("loading real CIFAR-10 from %s\n", dir.c_str());
      data::DataSplit split;
      split.train = data::load_cifar10_batch(train_path, 2000);
      const data::Dataset test = data::load_cifar10_batch(test_path, 1000);
      split.val = test.stratified_take(400);
      split.test = test;
      *image_size = 32;
      return split;
    }
    std::printf("no CIFAR-10 batches under %s, using the synthetic corpus\n", dir.c_str());
  }
  data::SyntheticVisionConfig cfg = data::synthetic_cifar10_like();
  cfg.train_per_class = 100;
  *image_size = cfg.image_size;
  return data::make_synthetic_vision(cfg);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cq;
  const util::Cli cli(argc, argv);
  int epochs = 0;
  try {
    epochs = static_cast<int>(cli.get_int("epochs", 4, 0, INT_MAX));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "importance_analysis: %s\n", e.what());
    return 2;
  }
  int image_size = 16;
  const data::DataSplit data = load_data(cli, &image_size);
  const int classes = data.train.num_classes();

  nn::VggSmallConfig model_cfg;
  model_cfg.image_size = image_size;
  model_cfg.num_classes = classes;
  nn::VggSmall model(model_cfg);

  nn::TrainConfig tc;
  tc.epochs = epochs;
  tc.batch_size = 50;
  tc.lr = 0.02;
  nn::Trainer trainer(tc);
  trainer.fit(model, data.train.images, data.train.labels);
  std::printf("test accuracy: %.4f\n\n",
              nn::Trainer::evaluate(model, data.test.images, data.test.labels));

  core::ImportanceCollector collector({1e-50, 20});
  const auto scores = collector.collect(model, data.val);

  std::printf("=== class-based importance (scores in [0, %d]) ===\n", classes);
  for (const auto& layer : scores) {
    const auto summary = util::summarize(
        std::span<const float>(layer.filter_phi.data(), layer.filter_phi.size()));
    int prunable = 0;
    int universal = 0;
    for (const float phi : layer.filter_phi) {
      if (phi < 0.5f) ++prunable;
      if (phi > 0.9f * static_cast<float>(classes)) ++universal;
    }
    std::printf("%-8s %4d filters | mean %5.2f | prunable(<0.5) %3d | universal(>90%% M) %3d\n",
                layer.name.c_str(), layer.channels, summary.mean, prunable, universal);
  }

  // The filters a pruning pass (0-bit) would remove first.
  std::printf("\nleast important filters (prune candidates):\n");
  for (const auto& layer : scores) {
    const auto order = util::argsort(
        std::span<const float>(layer.filter_phi.data(), layer.filter_phi.size()));
    std::printf("  %-8s:", layer.name.c_str());
    for (std::size_t i = 0; i < std::min<std::size_t>(5, order.size()); ++i) {
      std::printf(" #%zu(%.2f)", order[i], layer.filter_phi[order[i]]);
    }
    std::printf("\n");
  }
  return 0;
}
