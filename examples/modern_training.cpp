// Modern training recipe: the library outside the paper's exact setup.
//
// The reproduction benches train with the paper's SGD + step-LR
// recipe; this example shows the alternative training surface —
//   - Adam with cosine learning-rate annealing,
//   - CIFAR-style augmentation (random flip + pad-crop + cutout),
// and then runs the same CQ quantization on the result, demonstrating
// that the method is agnostic to how the full-precision model was
// obtained.
//
// Run: ./modern_training [--bits=3.0] [--epochs=6]

#include <climits>
#include <cstdio>
#include <stdexcept>

#include "core/pipeline.h"
#include "data/augment.h"
#include "data/synthetic.h"
#include "nn/models/resnet20.h"
#include "nn/trainer.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace cq;
  const util::Cli cli(argc, argv);
  const double bits = cli.get_double("bits", 3.0);
  int epochs = 0;
  try {
    epochs = static_cast<int>(cli.get_int("epochs", 6, 0, INT_MAX));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "modern_training: %s\n", e.what());
    return 2;
  }

  data::SyntheticVisionConfig data_cfg = data::synthetic_cifar10_like();
  data_cfg.train_per_class = 100;
  const data::DataSplit data = data::make_synthetic_vision(data_cfg);

  nn::ResNet20 model({});

  data::AugmentConfig aug_cfg;
  aug_cfg.hflip = true;
  aug_cfg.pad = 2;
  aug_cfg.cutout = 3;

  nn::TrainConfig train_cfg;
  train_cfg.epochs = epochs;
  train_cfg.batch_size = 50;
  train_cfg.lr = 0.005;
  train_cfg.optimizer = nn::OptimizerKind::kAdam;
  train_cfg.lr_schedule = nn::LrScheduleKind::kCosine;
  train_cfg.weight_decay = 1e-4;
  train_cfg.augment = data::Augmenter(aug_cfg).as_fn();

  const auto history = nn::Trainer(train_cfg).fit(model, data.train.images,
                                                  data.train.labels);
  for (const nn::EpochStats& e : history) {
    std::printf("epoch %2d  loss %.4f  train acc %.3f  lr %.5f\n", e.epoch, e.loss,
                e.train_accuracy, e.lr);
  }
  const double fp_acc =
      nn::Trainer::evaluate(model, data.test.images, data.test.labels);
  std::printf("full-precision test accuracy: %.4f\n\n", fp_acc);

  core::CqConfig cq_cfg;
  cq_cfg.search.desired_avg_bits = bits;
  cq_cfg.refine.epochs = 2;
  cq_cfg.activation_bits = static_cast<int>(bits);
  const core::CqReport report = core::CqPipeline(cq_cfg).run(model, data);
  std::printf("CQ at %.1f/%.0f: accuracy %.4f (fp %.4f), achieved %.3f avg bits\n", bits,
              static_cast<double>(cq_cfg.activation_bits), report.quant_accuracy,
              report.fp_accuracy, report.achieved_avg_bits);
  return 0;
}
