// Hardware cost walkthrough: per-layer energy and latency of a
// CQ-quantized network on accelerator hardware.
//
//   1. train VGG-small, quantize with CQ at --bits,
//   2. trace the per-layer MAC workloads from the live model,
//   3. print the per-layer energy split (compute / weight SRAM /
//      activation SRAM / DRAM) and bit-serial PE-array cycles,
//   4. compare the totals against int8 and fp32 uniform references.
//
// Run: ./hardware_cost_report [--bits=2.0] [--epochs=3]

#include <climits>
#include <cstdio>
#include <stdexcept>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "hw/cost_model.h"
#include "hw/pe_array.h"
#include "nn/models/vgg_small.h"
#include "nn/trainer.h"
#include "util/cli.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace cq;
  const util::Cli cli(argc, argv);
  const double bits = cli.get_double("bits", 2.0);
  int epochs = 0;
  try {
    epochs = static_cast<int>(cli.get_int("epochs", 3, 0, INT_MAX));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "hardware_cost_report: %s\n", e.what());
    return 2;
  }

  data::SyntheticVisionConfig data_cfg = data::synthetic_cifar10_like();
  data_cfg.train_per_class = 100;
  const data::DataSplit data = data::make_synthetic_vision(data_cfg);

  nn::VggSmall model({});
  nn::TrainConfig train_cfg;
  train_cfg.epochs = epochs;
  train_cfg.batch_size = 50;
  train_cfg.lr = 0.02;
  nn::Trainer(train_cfg).fit(model, data.train.images, data.train.labels);

  core::CqConfig cq_cfg;
  cq_cfg.search.desired_avg_bits = bits;
  cq_cfg.refine.epochs = 1;
  cq_cfg.activation_bits = static_cast<int>(bits);
  const core::CqReport report = core::CqPipeline(cq_cfg).run(model, data);
  std::printf("CQ accuracy %.4f at %.3f avg weight bits\n\n", report.quant_accuracy,
              report.achieved_avg_bits);

  // Per-layer workloads of the quantized model.
  tensor::Tensor sample({1, 3, data_cfg.image_size, data_cfg.image_size});
  for (std::size_t i = 0; i < sample.numel(); ++i) sample[i] = data.test.images[i];
  const auto workloads = hw::trace_workloads(model, sample, cq_cfg.activation_bits);

  const hw::EnergyModel energy;
  const hw::ModelCost cost = hw::estimate_cost(workloads, energy);
  const hw::PeArrayReport timing = hw::simulate_pe_array(workloads);

  util::Table table({"layer", "MACs", "active", "compute pJ", "w-SRAM pJ", "a-SRAM pJ",
                     "DRAM pJ", "cycles"});
  for (std::size_t i = 0; i < cost.layers.size(); ++i) {
    const hw::LayerCost& l = cost.layers[i];
    table.add_row({l.name, std::to_string(l.total_macs), std::to_string(l.active_macs),
                   util::Table::num(l.compute_pj, 0), util::Table::num(l.weight_sram_pj, 0),
                   util::Table::num(l.act_sram_pj, 0), util::Table::num(l.dram_pj, 0),
                   std::to_string(timing.layers[i].cycles)});
  }
  std::printf("%s", table.render().c_str());

  // Uniform reference points.
  for (const int ref_bits : {8, 32}) {
    const auto ref = hw::uniform_workloads(workloads, ref_bits);
    const hw::ModelCost ref_cost = hw::estimate_cost(ref, energy);
    const hw::PeArrayReport ref_timing = hw::simulate_pe_array(ref);
    std::printf("\nvs uniform %2d-bit: %.2fx energy, %.2fx latency", ref_bits,
                ref_cost.total_pj() / cost.total_pj(),
                static_cast<double>(ref_timing.total_cycles) /
                    static_cast<double>(timing.total_cycles));
  }
  std::printf("\n\ntotal: %.2f uJ, %lld cycles (%.2f us at 1 GHz)\n",
              cost.total_pj() / 1e6, static_cast<long long>(timing.total_cycles),
              timing.seconds * 1e6);
  return 0;
}
