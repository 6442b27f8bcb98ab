// Reproduces Figure 5: accuracy of CQ versus WrapNet (WN) [11] on
// ResNet-20-x1 / CIFAR-10 at the asymmetric W/A settings 1.0/3.0,
// 1.0/7.0, 2.0/4.0 and 2.0/7.0.
//
// Paper shape to reproduce: CQ > WN at every setting, and CQ is more
// stable at low activation bit-widths.

#include <climits>
#include <cstdio>
#include <stdexcept>

#include "baselines/wrapnet.h"
#include "harness.h"
#include "util/csv.h"
#include "util/table.h"
#include "util/timer.h"

int main(int argc, char** argv) {
  using namespace cq;
  const util::Cli cli(argc, argv);
  const bench::BenchScale scale = bench::BenchScale::from_cli(cli);
  int acc_bits = 0;
  try {
    acc_bits = static_cast<int>(cli.get_int("acc_bits", 14, 1, 32));
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fig5_cq_vs_wn: %s\n", e.what());
    return 2;
  }

  const data::DataSplit split = bench::dataset_c10(scale);
  auto fp_model = bench::make_resnet20(10, 1);
  const double fp_acc = bench::train_fp_cached(*fp_model, split, "resnet_x1_c10", scale);

  const std::vector<std::pair<double, int>> settings = {
      {1.0, 3}, {1.0, 7}, {2.0, 4}, {2.0, 7}};

  std::printf("=== Figure 5: CQ vs WN, ResNet-20-x1 / CIFAR-10-like ===\n");
  std::printf("FP accuracy %.4f | WN accumulator: %d bits\n\n", fp_acc, acc_bits);

  util::Table table({"setting (W/A)", "FP", "CQ", "WN", "CQ-WN"});
  util::CsvWriter csv(cli.get("csv", "fig5_cq_vs_wn.csv"),
                      {"setting", "fp_acc", "cq_acc", "wn_acc"});

  for (const auto& [wbits, abits] : settings) {
    util::Timer timer;
    auto cq_model = fp_model->clone();
    core::CqPipeline pipeline(bench::make_cq_config(wbits, abits, scale));
    const core::CqReport cq_report = pipeline.run(*cq_model, split);

    auto wn_model = fp_model->clone();
    baselines::WnConfig wn_cfg;
    wn_cfg.weight_bits = static_cast<int>(wbits);
    wn_cfg.activation_bits = abits;
    wn_cfg.accumulator_bits = acc_bits;
    wn_cfg.refine = bench::make_refine_config(scale);
    const baselines::BaselineReport wn_report =
        baselines::WnQuantizer(wn_cfg).run(*wn_model, split);

    const std::string setting =
        util::Table::num(wbits, 1) + "/" + util::Table::num(abits, 1);
    table.add_row({setting, util::Table::num(fp_acc * 100, 2),
                   util::Table::num(cq_report.quant_accuracy * 100, 2),
                   util::Table::num(wn_report.quant_accuracy * 100, 2),
                   util::Table::num(
                       (cq_report.quant_accuracy - wn_report.quant_accuracy) * 100, 2)});
    csv.add_row({setting, util::Table::num(fp_acc, 4),
                 util::Table::num(cq_report.quant_accuracy, 4),
                 util::Table::num(wn_report.quant_accuracy, 4)});
    std::printf("[%s] done in %.1fs\n", setting.c_str(), timer.seconds());
  }

  std::printf("\n%s(accuracies in %%)\n", table.render().c_str());
  return 0;
}
