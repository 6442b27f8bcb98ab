// Quickstart: the complete class-based quantization flow in ~60 lines.
//
//   1. generate a small labelled image set (CIFAR-10 stand-in),
//   2. train a full-precision VGG-small,
//   3. run the CQ pipeline (importance scores -> bit-width search ->
//      knowledge-distillation refinement) at 2.0/2.0 bits,
//   4. print the resulting accuracy and bit-width arrangement.
//
// Run: ./quickstart [--bits=2.0] [--epochs=4]

#include <climits>
#include <cstdio>
#include <stdexcept>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "nn/metrics.h"
#include "nn/models/vgg_small.h"
#include "nn/trainer.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace cq;
  const util::Cli cli(argc, argv);
  const double bits = cli.get_double("bits", 2.0);
  int epochs = 0;
  try {
    epochs = static_cast<int>(cli.get_int("epochs", 4, 0, INT_MAX));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return 2;
  }

  // 1. Data: a synthetic 10-class image corpus (3x16x16).
  data::SyntheticVisionConfig data_cfg = data::synthetic_cifar10_like();
  data_cfg.train_per_class = 100;
  const data::DataSplit data = data::make_synthetic_vision(data_cfg);
  std::printf("dataset: %zu train / %zu val / %zu test images\n", data.train.size(),
              data.val.size(), data.test.size());

  // 2. Full-precision training.
  nn::VggSmall model({});
  nn::TrainConfig train_cfg;
  train_cfg.epochs = epochs;
  train_cfg.batch_size = 50;
  train_cfg.lr = 0.02;
  train_cfg.lr_milestones = {(3 * epochs) / 4};
  nn::Trainer trainer(train_cfg);
  trainer.fit(model, data.train.images, data.train.labels);
  std::printf("full-precision test accuracy: %.4f\n",
              nn::Trainer::evaluate(model, data.test.images, data.test.labels));

  // 3. Class-based quantization to an average of `bits` weight bits and
  //    `bits` activation bits.
  core::CqConfig cq_cfg;
  cq_cfg.search.desired_avg_bits = bits;
  cq_cfg.search.t1 = 0.5;                // paper Section III-C
  cq_cfg.refine.epochs = 2;
  cq_cfg.activation_bits = static_cast<int>(bits);
  core::CqPipeline pipeline(cq_cfg);
  const core::CqReport report = pipeline.run(model, data);

  // 4. Report.
  std::printf("\n--- CQ report ---\n");
  std::printf("average weight bits : %.3f (target %.1f)\n", report.achieved_avg_bits, bits);
  std::printf("accuracy fp         : %.4f\n", report.fp_accuracy);
  std::printf("accuracy quantized  : %.4f (before refinement %.4f)\n",
              report.quant_accuracy, report.quant_accuracy_pre_refine);
  std::printf("thresholds          :");
  for (const double p : report.thresholds) std::printf(" %.2f", p);
  std::printf("\nper-layer bits      :\n");
  for (const auto& layer : report.arrangement.layers()) {
    int pruned = 0;
    for (const int b : layer.filter_bits) pruned += (b == 0);
    std::printf("  %-8s %3zu filters, %2d pruned (0-bit)\n", layer.layer_name.c_str(),
                layer.filter_bits.size(), pruned);
  }

  // Class-resolved damage: quantization rarely hurts uniformly.
  const nn::ConfusionMatrix cm = nn::evaluate_confusion(
      model, data.test.images, data.test.labels, data_cfg.num_classes);
  std::printf("per-class accuracy  :");
  for (const double acc : cm.per_class_accuracy()) std::printf(" %.2f", acc);
  std::printf("\n");
  return 0;
}
