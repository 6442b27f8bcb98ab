// Export & deploy: what happens after the paper's method finishes.
//
//   1. train a full-precision VGG-small on the synthetic corpus,
//   2. run class-based quantization at the requested average bit-width,
//   3. export the quantized model into a deployment artifact whose
//      weights are stored as packed sub-byte quantizer codes,
//   4. save it, print the byte-level size breakdown vs fp32,
//   5. load the artifact back as a fresh model ("the device side") and
//      verify it reproduces the training-side accuracy bit-for-bit.
//
// Run: ./export_and_deploy [--bits=2.0] [--epochs=3] [--out=model.cqar]

#include <climits>
#include <cstdio>
#include <stdexcept>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "deploy/artifact.h"
#include "nn/models/vgg_small.h"
#include "nn/trainer.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace cq;
  const util::Cli cli(argc, argv);
  const double bits = cli.get_double("bits", 2.0);
  int epochs = 0;
  try {
    epochs = static_cast<int>(cli.get_int("epochs", 3, 0, INT_MAX));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "export_and_deploy: %s\n", e.what());
    return 2;
  }
  const std::string out = cli.get("out", "model.cqar");

  // 1. Data + full-precision training.
  data::SyntheticVisionConfig data_cfg = data::synthetic_cifar10_like();
  data_cfg.train_per_class = 100;
  const data::DataSplit data = data::make_synthetic_vision(data_cfg);

  nn::VggSmall model({});
  nn::TrainConfig train_cfg;
  train_cfg.epochs = epochs;
  train_cfg.batch_size = 50;
  train_cfg.lr = 0.02;
  nn::Trainer trainer(train_cfg);
  trainer.fit(model, data.train.images, data.train.labels);

  // 2. Class-based quantization.
  core::CqConfig cq_cfg;
  cq_cfg.search.desired_avg_bits = bits;
  cq_cfg.refine.epochs = 1;
  cq_cfg.activation_bits = static_cast<int>(bits);
  const core::CqReport report = core::CqPipeline(cq_cfg).run(model, data);
  std::printf("quantized accuracy (training side): %.4f at %.3f avg bits\n",
              report.quant_accuracy, report.achieved_avg_bits);

  // 3.-4. Export, save, size accounting.
  const deploy::QuantizedArtifact artifact = deploy::export_model(model);
  deploy::save_artifact(out, artifact);
  const deploy::SizeReport size = deploy::size_report(artifact);
  std::printf("\n--- artifact '%s' ---\n", out.c_str());
  std::printf("packed weight codes : %8zu bytes\n", size.packed_code_bytes);
  std::printf("packing metadata    : %8zu bytes\n", size.packed_meta_bytes);
  std::printf("dense fp32 residue  : %8zu bytes (first/output layers, biases, BN)\n",
              size.dense_bytes);
  std::printf("same weights as fp32: %8zu bytes\n", size.fp32_weight_bytes);
  std::printf("total artifact      : %8zu bytes  (%.2fx smaller than fp32)\n",
              size.total_bytes(), size.compression_ratio());
  for (const deploy::PackedLayer& layer : artifact.packed_layers) {
    std::printf("  %-10s %5d filters  %6.3f bits/weight  %7zu payload bytes\n",
                layer.name.c_str(), layer.num_filters, layer.bits_per_weight(),
                layer.codes.size());
  }

  // 5. Device side: load and verify.
  const deploy::QuantizedArtifact loaded = deploy::load_artifact(out);
  auto device_model = deploy::instantiate(loaded);
  const double device_acc =
      nn::Trainer::evaluate(*device_model, data.test.images, data.test.labels);
  const double training_acc =
      nn::Trainer::evaluate(model, data.test.images, data.test.labels);
  std::printf("\naccuracy training side: %.4f\n", training_acc);
  std::printf("accuracy device side  : %.4f\n", device_acc);
  std::printf("bit-exact             : %s\n", device_acc == training_acc ? "yes" : "NO");
  return device_acc == training_acc ? 0 : 1;
}
