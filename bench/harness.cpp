#include "harness.h"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>

#include "nn/models/checkpoint.h"
#include "util/logging.h"
#include "util/timer.h"

namespace cq::bench {

namespace {

constexpr const char* kCheckpointDir = "bench_checkpoints";

}  // namespace

BenchScale BenchScale::from_cli(const util::Cli& cli) {
  BenchScale s;
  if (cli.get_bool("fast", false)) {
    s.train_per_class_c10 = 60;
    s.val_per_class_c10 = 20;
    s.test_per_class_c10 = 20;
    s.train_per_class_c100 = 8;
    s.val_per_class_c100 = 5;
    s.test_per_class_c100 = 4;
    s.fp_epochs = 2;
    s.refine_epochs = 1;
    s.eval_samples = 60;
    s.importance_samples = 8;
  }
  // Every bench reads its scale first, so a refused value exits 2 before
  // any work starts, as the tools do.
  try {
    s.train_per_class_c10 =
        static_cast<int>(cli.get_int("train_per_class", s.train_per_class_c10, 1, INT_MAX));
    s.fp_epochs = static_cast<int>(cli.get_int("fp_epochs", s.fp_epochs, 0, INT_MAX));
    s.refine_epochs =
        static_cast<int>(cli.get_int("refine_epochs", s.refine_epochs, 0, INT_MAX));
    s.eval_samples = static_cast<int>(cli.get_int("eval_samples", s.eval_samples, 1, INT_MAX));
    s.importance_samples = static_cast<int>(
        cli.get_int("importance_samples", s.importance_samples, 1, INT_MAX));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "bench: %s\n", e.what());
    std::exit(2);
  }
  return s;
}

data::DataSplit dataset_c10(const BenchScale& scale) {
  data::SyntheticVisionConfig cfg = data::synthetic_cifar10_like();
  cfg.train_per_class = scale.train_per_class_c10;
  cfg.val_per_class = scale.val_per_class_c10;
  cfg.test_per_class = scale.test_per_class_c10;
  return data::make_synthetic_vision(cfg);
}

data::DataSplit dataset_c100(const BenchScale& scale) {
  data::SyntheticVisionConfig cfg = data::synthetic_cifar100_like();
  cfg.train_per_class = scale.train_per_class_c100;
  cfg.val_per_class = scale.val_per_class_c100;
  cfg.test_per_class = scale.test_per_class_c100;
  return data::make_synthetic_vision(cfg);
}

std::unique_ptr<nn::Model> make_vgg_small(int num_classes, std::uint64_t seed) {
  nn::VggSmallConfig cfg;
  cfg.num_classes = num_classes;
  cfg.seed = seed;
  return std::make_unique<nn::VggSmall>(cfg);
}

std::unique_ptr<nn::Model> make_resnet20(int num_classes, int expand, std::uint64_t seed) {
  nn::ResNet20Config cfg;
  cfg.num_classes = num_classes;
  cfg.base_width = 2;
  cfg.expand = expand;
  cfg.seed = seed;
  return std::make_unique<nn::ResNet20>(cfg);
}

double train_fp_cached(nn::Model& model, const data::DataSplit& split,
                       const std::string& name, const BenchScale& scale) {
  namespace fs = std::filesystem;
  fs::create_directories(kCheckpointDir);
  const std::string path = std::string(kCheckpointDir) + "/" + name + "_e" +
                           std::to_string(scale.fp_epochs) + "_n" +
                           std::to_string(split.train.size()) + ".cqt";
  if (fs::exists(path)) {
    try {
      if (nn::load_checkpoint(path, model)) {
        const double acc =
            nn::Trainer::evaluate(model, split.test.images, split.test.labels);
        util::log_info() << name << ": loaded checkpoint " << path << " (acc "
                         << acc << ")";
        return acc;
      }
      util::log_warn() << name << ": checkpoint shape mismatch, retraining";
    } catch (const std::exception& e) {
      util::log_warn() << name << ": checkpoint unreadable (" << e.what()
                       << "), retraining";
    }
  }

  nn::TrainConfig tc;
  tc.batch_size = 50;
  // Paper recipe scaled down: VGG lr 0.02, ResNet lr 0.1; milestones
  // proportional to the shortened schedule. The thin ResNets underfit
  // on one pass, so they train twice as long as the VGGs.
  const bool is_vgg = model.name() == "VggSmall";
  tc.epochs = is_vgg ? scale.fp_epochs : 2 * scale.fp_epochs;
  tc.lr = is_vgg ? 0.02 : 0.1;
  tc.weight_decay = is_vgg ? 5e-4 : 1e-4;
  tc.momentum = 0.9;
  tc.lr_milestones = {(3 * tc.epochs) / 4};
  tc.seed = 17;
  nn::Trainer trainer(tc);
  util::Timer timer;
  trainer.fit(model, split.train.images, split.train.labels);
  const double acc = nn::Trainer::evaluate(model, split.test.images, split.test.labels);
  util::log_info() << name << ": trained " << scale.fp_epochs << " epochs in "
                   << timer.seconds() << "s (acc " << acc << ")";
  nn::save_checkpoint(path, model);
  return acc;
}

core::CqConfig make_cq_config(double weight_bits, int act_bits, const BenchScale& scale) {
  core::CqConfig cfg;
  cfg.importance.samples_per_class = scale.importance_samples;
  cfg.search.max_bits = 4;
  cfg.search.desired_avg_bits = weight_bits;
  cfg.search.t1 = 0.5;   // paper Section III-C example
  cfg.search.decay = 0.8;
  cfg.search.step_fraction = 0.0625;
  cfg.search.eval_samples = scale.eval_samples;
  cfg.refine = make_refine_config(scale);
  cfg.activation_bits = act_bits;
  return cfg;
}

core::RefineConfig make_refine_config(const BenchScale& scale) {
  core::RefineConfig rc;
  rc.epochs = scale.refine_epochs;
  rc.batch_size = 50;
  rc.lr = 0.01;
  rc.momentum = 0.9;
  rc.weight_decay = 1e-4;
  rc.alpha = 0.3;  // paper Section IV
  rc.seed = 23;
  return rc;
}

}  // namespace cq::bench
