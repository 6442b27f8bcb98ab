#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "deploy/artifact.h"
#include "deploy/backend.h"
#include "deploy/plan.h"
#include "nn/models/mlp.h"
#include "nn/models/resnet20.h"
#include "nn/models/vgg_small.h"
#include "serve/engine_session.h"
#include "serve/zoo.h"
#include "tensor/tensor.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace cq::deploy {
namespace {

using tensor::Tensor;

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "cq_artifact_" + name;
}

/// Assigns a repeating 4,3,2,1,0 bit pattern to every scored layer and
/// calibrates + enables 3-bit activation quantization — a stand-in for
/// a finished CQ run that exercises every bit bucket.
void quantize_for_test(nn::Model& model, const Tensor& calib) {
  model.calibrate_activations(calib, calib.dim(0));
  model.set_activation_bits(3);
  const int pattern[] = {4, 3, 2, 1, 0};
  for (const nn::ScoredLayerRef& ref : model.scored_layers()) {
    for (quant::QuantizableLayer* layer : ref.layers) {
      std::vector<int> bits(static_cast<std::size_t>(layer->num_filters()));
      for (std::size_t k = 0; k < bits.size(); ++k) bits[k] = pattern[k % 5];
      layer->set_filter_bits(std::move(bits));
    }
  }
}

void expect_identical_outputs(nn::Model& a, nn::Model& b, const Tensor& input) {
  a.set_training(false);
  b.set_training(false);
  const Tensor out_a = a.forward(input);
  const Tensor out_b = b.forward(input);
  ASSERT_EQ(out_a.shape(), out_b.shape());
  for (std::size_t i = 0; i < out_a.numel(); ++i) {
    ASSERT_EQ(out_a[i], out_b[i]) << "logit " << i;
  }
}

TEST(ArchDescriptor, MissingParameterThrows) {
  ArchDescriptor arch;
  arch.kind = "VggSmall";
  EXPECT_THROW(instantiate_model(arch), ArtifactError);
}

TEST(ArchDescriptor, MissingParameterNamesKindAndAvailableKeys) {
  ArchDescriptor arch;
  arch.kind = "VggSmall";
  arch.params = {{"image_size", 16.0}, {"num_classes", 10.0}};
  try {
    arch.int_param("c1");
    FAIL() << "expected ArtifactError";
  } catch (const ArtifactError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("VggSmall"), std::string::npos) << what;
    EXPECT_NE(what.find("'c1'"), std::string::npos) << what;
    EXPECT_NE(what.find("image_size"), std::string::npos) << what;
    EXPECT_NE(what.find("num_classes"), std::string::npos) << what;
  }
}

TEST(ArchDescriptor, MissingParameterOnEmptyDescriptorSaysNone) {
  ArchDescriptor arch;
  arch.kind = "Mlp";
  try {
    arch.param("in_features");
    FAIL() << "expected ArtifactError";
  } catch (const ArtifactError& e) {
    EXPECT_NE(std::string(e.what()).find("<none>"), std::string::npos) << e.what();
  }
}

TEST(ArchDescriptor, UnknownKindThrows) {
  ArchDescriptor arch;
  arch.kind = "Transformer";
  EXPECT_THROW(instantiate_model(arch), ArtifactError);
}

TEST(ArchDescriptor, MlpHiddenLayersRoundTrip) {
  nn::MlpConfig config;
  config.in_features = 8;
  config.hidden = {24, 17, 9};
  config.num_classes = 5;
  config.seed = 42;
  nn::Mlp mlp(config);
  const ArchDescriptor arch = describe_model(mlp);
  EXPECT_EQ(arch.kind, "Mlp");
  auto rebuilt = instantiate_model(arch);
  auto* typed = dynamic_cast<nn::Mlp*>(rebuilt.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->config().hidden, config.hidden);
  EXPECT_EQ(typed->config().in_features, config.in_features);
  EXPECT_EQ(typed->config().num_classes, config.num_classes);
}

TEST(ArchDescriptor, ResNetConfigRoundTrips) {
  nn::ResNet20Config config;
  config.base_width = 3;
  config.expand = 2;
  config.num_classes = 7;
  config.image_size = 8;
  nn::ResNet20 model(config);
  auto rebuilt = instantiate_model(describe_model(model));
  auto* typed = dynamic_cast<nn::ResNet20*>(rebuilt.get());
  ASSERT_NE(typed, nullptr);
  EXPECT_EQ(typed->config().base_width, 3);
  EXPECT_EQ(typed->config().expand, 2);
  EXPECT_EQ(typed->config().num_classes, 7);
}

TEST(ExportModel, RequiresQuantizedLayers) {
  nn::MlpConfig config;
  config.in_features = 6;
  config.hidden = {10, 10};
  nn::Mlp mlp(config);
  EXPECT_THROW(export_model(mlp), std::invalid_argument);
}

TEST(ExportModel, MlpArtifactReproducesOutputsExactly) {
  nn::MlpConfig config;
  config.in_features = 12;
  config.hidden = {20, 16};
  config.num_classes = 4;
  nn::Mlp mlp(config);
  util::Rng rng(5);
  const Tensor calib = Tensor::randn({16, 12}, rng);
  quantize_for_test(mlp, calib);

  const QuantizedArtifact artifact = export_model(mlp);
  auto restored = instantiate(artifact);

  const Tensor input = Tensor::randn({8, 12}, rng);
  expect_identical_outputs(mlp, *restored, input);
}

TEST(ExportModel, VggArtifactReproducesOutputsExactly) {
  nn::VggSmallConfig config;
  config.image_size = 8;
  config.c1 = 4;
  config.c2 = 6;
  config.c3 = 8;
  config.f1 = 20;
  config.f2 = 14;
  config.f3 = 10;
  nn::VggSmall vgg(config);
  util::Rng rng(6);
  // A few training-mode forwards give batch-norm nontrivial running stats.
  vgg.set_training(true);
  for (int i = 0; i < 3; ++i) {
    (void)vgg.forward(Tensor::randn({4, 3, 8, 8}, rng));
  }
  const Tensor calib = Tensor::randn({8, 3, 8, 8}, rng);
  quantize_for_test(vgg, calib);

  const QuantizedArtifact artifact = export_model(vgg);
  auto restored = instantiate(artifact);

  const Tensor input = Tensor::randn({5, 3, 8, 8}, rng);
  expect_identical_outputs(vgg, *restored, input);
}

TEST(ExportModel, ResNetArtifactReproducesOutputsExactly) {
  nn::ResNet20Config config;
  config.image_size = 8;
  config.base_width = 2;
  config.expand = 1;
  nn::ResNet20 model(config);
  util::Rng rng(7);
  model.set_training(true);
  for (int i = 0; i < 3; ++i) {
    (void)model.forward(Tensor::randn({4, 3, 8, 8}, rng));
  }
  const Tensor calib = Tensor::randn({8, 3, 8, 8}, rng);
  quantize_for_test(model, calib);

  const QuantizedArtifact artifact = export_model(model);
  auto restored = instantiate(artifact);

  const Tensor input = Tensor::randn({5, 3, 8, 8}, rng);
  expect_identical_outputs(model, *restored, input);
}

TEST(ExportModel, DenseStateExcludesPackedWeights) {
  nn::MlpConfig config;
  config.in_features = 10;
  config.hidden = {12, 12};
  nn::Mlp mlp(config);
  util::Rng rng(8);
  quantize_for_test(mlp, Tensor::randn({4, 10}, rng));
  const QuantizedArtifact artifact = export_model(mlp);

  // Mlp parameters: (W,b) per Linear. Layers: first, hidden2, output —
  // of which only the middle hidden layer is scored/packed.
  EXPECT_EQ(artifact.packed_layers.size(), 1u);
  std::size_t dense_weights = 0;
  for (const auto& [key, t] : artifact.dense) dense_weights += t.numel();
  std::size_t all_weights = 0;
  for (nn::Parameter* p : mlp.parameters()) all_weights += p->value.numel();
  const std::size_t packed_weights = static_cast<std::size_t>(
      artifact.packed_layers[0].num_filters * artifact.packed_layers[0].weights_per_filter);
  EXPECT_EQ(dense_weights + packed_weights, all_weights);
}

TEST(Artifact, SaveLoadRoundTripPreservesOutputs) {
  nn::MlpConfig config;
  config.in_features = 9;
  config.hidden = {14, 11};
  config.num_classes = 3;
  nn::Mlp mlp(config);
  util::Rng rng(9);
  quantize_for_test(mlp, Tensor::randn({8, 9}, rng));

  const std::string path = temp_path("roundtrip.cqar");
  save_artifact(path, export_model(mlp));
  const QuantizedArtifact loaded = load_artifact(path);
  auto restored = instantiate(loaded);

  const Tensor input = Tensor::randn({6, 9}, rng);
  expect_identical_outputs(mlp, *restored, input);
  std::remove(path.c_str());
}

TEST(Artifact, LoadRejectsMissingFile) {
  EXPECT_THROW(load_artifact(temp_path("does_not_exist.cqar")), ArtifactError);
}

TEST(Artifact, LoadRejectsBadMagic) {
  const std::string path = temp_path("bad_magic.cqar");
  std::ofstream(path, std::ios::binary) << "NOTANARTIFACTFILE_PADDING_PADDING";
  EXPECT_THROW(load_artifact(path), ArtifactError);
  std::remove(path.c_str());
}

TEST(Artifact, LoadRejectsTruncatedFile) {
  nn::MlpConfig config;
  config.in_features = 6;
  config.hidden = {8, 8};
  nn::Mlp mlp(config);
  util::Rng rng(10);
  quantize_for_test(mlp, Tensor::randn({4, 6}, rng));
  const std::string path = temp_path("truncated.cqar");
  save_artifact(path, export_model(mlp));

  std::ifstream in(path, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)), {});
  in.close();
  bytes.resize(bytes.size() / 2);
  std::ofstream(path, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  EXPECT_THROW(load_artifact(path), ArtifactError);
  std::remove(path.c_str());
}

TEST(Artifact, LoadRejectsBitFlipAnywhereInPayload) {
  nn::MlpConfig config;
  config.in_features = 6;
  config.hidden = {8, 8};
  nn::Mlp mlp(config);
  util::Rng rng(11);
  quantize_for_test(mlp, Tensor::randn({4, 6}, rng));
  const std::string path = temp_path("corrupt.cqar");
  save_artifact(path, export_model(mlp));

  std::ifstream in(path, std::ios::binary);
  std::vector<char> pristine((std::istreambuf_iterator<char>(in)), {});
  in.close();

  // Flip one bit at several payload offsets; the CRC must catch every one.
  constexpr std::size_t header = 4 + 4 + 8;
  for (std::size_t offset = header; offset + 4 < pristine.size();
       offset += pristine.size() / 7 + 1) {
    std::vector<char> corrupted = pristine;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x01);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(corrupted.data(), static_cast<std::streamsize>(corrupted.size()));
    EXPECT_THROW(load_artifact(path), ArtifactError) << "offset " << offset;
  }
  std::remove(path.c_str());
}

TEST(Artifact, LoadRejectsTamperedHeaderFields) {
  nn::MlpConfig config;
  config.in_features = 6;
  config.hidden = {8, 8};
  nn::Mlp mlp(config);
  util::Rng rng(14);
  quantize_for_test(mlp, Tensor::randn({4, 6}, rng));
  const std::string path = temp_path("header.cqar");
  save_artifact(path, export_model(mlp));

  std::ifstream in(path, std::ios::binary);
  std::vector<char> pristine((std::istreambuf_iterator<char>(in)), {});
  in.close();

  // The header is not covered by the payload CRC, so every field must
  // be validated explicitly: magic (bytes 0-3), version (4-7),
  // payload size (8-15).
  for (const std::size_t offset : {0u, 4u, 8u}) {
    std::vector<char> corrupted = pristine;
    corrupted[offset] = static_cast<char>(corrupted[offset] ^ 0x01);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        .write(corrupted.data(), static_cast<std::streamsize>(corrupted.size()));
    EXPECT_THROW(load_artifact(path), ArtifactError) << "header offset " << offset;
  }
  std::remove(path.c_str());
}

TEST(Artifact, LoadRejectsTrailingGarbage) {
  nn::MlpConfig config;
  config.in_features = 6;
  config.hidden = {8, 8};
  nn::Mlp mlp(config);
  util::Rng rng(15);
  quantize_for_test(mlp, Tensor::randn({4, 6}, rng));
  const std::string path = temp_path("trailing.cqar");
  save_artifact(path, export_model(mlp));
  std::ofstream(path, std::ios::binary | std::ios::app) << "EXTRA";
  EXPECT_THROW(load_artifact(path), ArtifactError);
  std::remove(path.c_str());
}

/// Saves the MLP fixture's artifact with `mutate` applied to its one
/// packed layer (fc1: 8 filters x 8 weights at the 4,3,2,1,0 widths,
/// 19 payload bytes) and expects load_artifact to refuse it.
/// save_artifact writes a fresh CRC, so only the structural check can.
void expect_packed_mutation_rejected(const std::string& name,
                                     const std::function<void(PackedLayer&)>& mutate) {
  nn::MlpConfig config;
  config.in_features = 6;
  config.hidden = {8, 8};
  nn::Mlp mlp(config);
  util::Rng rng(17);
  quantize_for_test(mlp, Tensor::randn({4, 6}, rng));
  QuantizedArtifact artifact = export_model(mlp);
  ASSERT_EQ(1u, artifact.packed_layers.size());
  const std::string path = temp_path(name + ".cqar");
  save_artifact(path, artifact);
  EXPECT_EQ(19u, load_artifact(path).packed_layers[0].codes.size());  // control
  mutate(artifact.packed_layers[0]);
  save_artifact(path, artifact);
  EXPECT_THROW(load_artifact(path), ArtifactError) << name;
  std::remove(path.c_str());
}

TEST(Artifact, LoadRejectsPayloadOneByteShort) {
  expect_packed_mutation_rejected("short", [](PackedLayer& layer) { layer.codes.pop_back(); });
}

TEST(Artifact, LoadRejectsEmptyPayload) {
  expect_packed_mutation_rejected("empty", [](PackedLayer& layer) { layer.codes.clear(); });
}

TEST(Artifact, LoadRejectsFilterWidenedPastSixteenBits) {
  expect_packed_mutation_rejected("wide20",
                                  [](PackedLayer& layer) { layer.filter_bits[0] = 20; });
}

TEST(Artifact, LoadRejectsFilterWidenedPastThirtyTwoBits) {
  expect_packed_mutation_rejected("wide40",
                                  [](PackedLayer& layer) { layer.filter_bits[0] = 40; });
}

TEST(Artifact, LoadRejectsPayloadSizeThatOverflows) {
  // 19 stored bits per weight column times 2^61 weights wraps 64 bits:
  // the size check must refuse it without computing the wrapped product.
  expect_packed_mutation_rejected("overflow", [](PackedLayer& layer) {
    layer.weights_per_filter = std::int64_t{1} << 61;
  });
}

TEST(Artifact, LoadRejectsMissingFilterWidth) {
  expect_packed_mutation_rejected("widths",
                                  [](PackedLayer& layer) { layer.filter_bits.pop_back(); });
}

/// Writes a CRC-valid artifact whose payload is one dense tensor "p0"
/// declaring `dims`, followed by `floats` zero floats of data.
void write_one_tensor_artifact(const std::string& path,
                               const std::vector<std::uint32_t>& dims,
                               std::size_t floats) {
  std::vector<std::uint8_t> payload;
  const auto put = [&payload](const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    payload.insert(payload.end(), p, p + size);
  };
  const auto u32 = [&put](std::uint32_t v) { put(&v, sizeof v); };
  const auto str = [&](const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    put(s.data(), s.size());
  };
  str("Mlp");  // architecture kind
  u32(0);      // architecture params
  u32(0);      // activation quantizers
  u32(0);      // packed layers
  u32(1);      // dense tensors
  str("p0");
  u32(static_cast<std::uint32_t>(dims.size()));
  for (const std::uint32_t d : dims) u32(d);
  const std::vector<float> data(floats, 0.0f);
  put(data.data(), data.size() * sizeof(float));

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write("CQAR", 4);
  const std::uint32_t version = 1;
  out.write(reinterpret_cast<const char*>(&version), sizeof version);
  const std::uint64_t size = payload.size();
  out.write(reinterpret_cast<const char*>(&size), sizeof size);
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
}

TEST(Artifact, LoadRejectsTensorDimsBeyondPayload) {
  const std::string path = temp_path("huge_dims.cqar");
  // Control: the crafted format loads when the data is really there.
  write_one_tensor_artifact(path, {2, 3}, 6);
  EXPECT_EQ(6u, load_artifact(path).dense.at("p0").numel());
  // The CRC passes, but the declared shapes hold far more floats than
  // the payload: [2^28]^3 wraps size_t to 0, [2^28]^2 is too large to
  // allocate. Both must fail as ArtifactError before any allocation.
  const std::vector<std::vector<std::uint32_t>> huge = {
      {1u << 28, 1u << 28, 1u << 28}, {1u << 28, 1u << 28}};
  for (const std::vector<std::uint32_t>& dims : huge) {
    write_one_tensor_artifact(path, dims, 0);
    EXPECT_THROW(load_artifact(path), ArtifactError) << dims.size() << " dims";
  }
  std::remove(path.c_str());
}

TEST(Artifact, InstantiateRejectsWrongArchitecture) {
  // A valid artifact for one architecture must not load into a
  // descriptor claiming a different (incompatible) one.
  nn::MlpConfig config;
  config.in_features = 6;
  config.hidden = {8, 8};
  nn::Mlp mlp(config);
  util::Rng rng(16);
  quantize_for_test(mlp, Tensor::randn({4, 6}, rng));
  QuantizedArtifact artifact = export_model(mlp);
  artifact.arch.params["hidden0"] = 16;  // wrong width
  EXPECT_THROW(instantiate(artifact), ArtifactError);
}

/// Applies `mutate` to the MLP fixture's one packed layer (fc1, 8
/// filters x 8 weights), keeping its payload exactly what its widths
/// need, so the file round trip accepts it. Only a check against the
/// architecture can refuse it, and compile_plan and instantiate must
/// both do so with an ArtifactError naming the layer.
void expect_packed_shape_rejected(const std::string& name,
                                  const std::function<void(PackedLayer&)>& mutate) {
  nn::MlpConfig config;
  config.in_features = 6;
  config.hidden = {8, 8};
  nn::Mlp mlp(config);
  util::Rng rng(18);
  quantize_for_test(mlp, Tensor::randn({4, 6}, rng));
  QuantizedArtifact artifact = export_model(mlp);
  ASSERT_EQ(1u, artifact.packed_layers.size());
  mutate(artifact.packed_layers[0]);
  const std::string path = temp_path(name + ".cqar");
  save_artifact(path, artifact);
  const QuantizedArtifact loaded = load_artifact(path);
  std::remove(path.c_str());
  const std::string layer = artifact.packed_layers[0].name;
  const auto expect_refused = [&](const char* what, const std::function<void()>& call) {
    try {
      call();
      ADD_FAILURE() << name << ": " << what << " accepted the artifact";
    } catch (const ArtifactError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + layer + "'"), std::string::npos)
          << name << ": " << what << ": " << e.what();
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << ": " << what << " threw a non-ArtifactError: " << e.what();
    }
  };
  expect_refused("compile_plan", [&] { compile_plan(loaded); });
  expect_refused("instantiate", [&] { instantiate(loaded); });
}

TEST(Artifact, PackedLayerWithExtraFilterIsArtifactError) {
  // A 0-bit filter needs no payload, so the file stays well-formed.
  expect_packed_shape_rejected("extra_filter", [](PackedLayer& layer) {
    ++layer.num_filters;
    layer.filter_bits.push_back(0);
  });
}

TEST(Artifact, PackedLayerWithLongerRowsIsArtifactError) {
  expect_packed_shape_rejected("longer_rows", [](PackedLayer& layer) {
    ++layer.weights_per_filter;
    layer.codes.resize((layer.payload_bits() + 7) / 8, 0);
  });
}

TEST(Artifact, SizeReportShowsCompression) {
  nn::VggSmallConfig config;
  config.image_size = 8;
  config.c1 = 4;
  config.c2 = 8;
  config.c3 = 8;
  config.f1 = 32;
  config.f2 = 24;
  config.f3 = 16;
  nn::VggSmall vgg(config);
  util::Rng rng(12);
  quantize_for_test(vgg, Tensor::randn({4, 3, 8, 8}, rng));
  const QuantizedArtifact artifact = export_model(vgg);
  const SizeReport report = size_report(artifact);

  EXPECT_GT(report.packed_code_bytes, 0u);
  EXPECT_GT(report.dense_bytes, 0u);
  EXPECT_GT(report.fp32_weight_bytes, report.packed_code_bytes)
      << "packed codes must be smaller than fp32 weights";
  EXPECT_GT(report.compression_ratio(), 1.0);
  // The 4,3,2,1,0 pattern averages 2 bits/weight = 1/16 of fp32.
  EXPECT_LT(static_cast<double>(report.packed_code_bytes),
            0.11 * static_cast<double>(report.fp32_weight_bytes));
}

/// An activation clip that is denormal, infinite or NaN makes the code
/// scale (levels - 1) / clip overflow or poison, and the encoders would
/// hand the NaN it makes to a float-to-int conversion (UB). The loader
/// refuses such a quantizer, and bits outside [0, 16], naming the
/// quantizer; a clip at or below zero is a pass-through and still loads.
TEST(Artifact, LoadRejectsUnusableActivationGrid) {
  QuantizedArtifact artifact;
  for (serve::ZooModel& model : serve::default_zoo()) {
    if (model.name == "resnet20") artifact = std::move(model.artifact);
  }
  ASSERT_GT(artifact.act_quants.size(), 4u);
  ActQuantState& aq = artifact.act_quants[4];
  ASSERT_GE(aq.bits, 1);
  ASSERT_GT(aq.max_activation, 0.0f);
  const ActQuantState calibrated = aq;
  const std::string path = temp_path("grid.cqar");
  const auto load_error = [&]() -> std::string {
    save_artifact(path, artifact);
    try {
      load_artifact(path);
    } catch (const ArtifactError& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ("", load_error());  // control
  const float inf = std::numeric_limits<float>::infinity();
  for (const float clip : {1.24e-40f, std::numeric_limits<float>::denorm_min(), inf,
                           std::numeric_limits<float>::quiet_NaN()}) {
    aq.max_activation = clip;
    EXPECT_NE(std::string::npos, load_error().find("activation quantizer #4")) << clip;
  }
  aq.max_activation = 1.24e-40f;  // the message shows the subnormal value
  EXPECT_NE(std::string::npos, load_error().find("clip bound 1.23999e-40 is not"));
  // A normal clip whose 16-bit code scale overflows float.
  aq.bits = 16;
  aq.max_activation = std::numeric_limits<float>::min();
  EXPECT_NE(std::string::npos, load_error().find("activation quantizer #4"));
  for (const int bits : {-1, 17, 40}) {
    aq = calibrated;
    aq.bits = bits;
    EXPECT_NE(std::string::npos, load_error().find("activation quantizer #4")) << bits;
  }
  for (const float clip : {0.0f, -1.0f, -inf}) {
    aq = calibrated;
    aq.max_activation = clip;
    EXPECT_EQ("", load_error()) << clip;
  }
  std::remove(path.c_str());
}

TEST(Artifact, ActivationCalibrationSurvivesRoundTrip) {
  nn::MlpConfig config;
  config.in_features = 7;
  config.hidden = {9, 9};
  nn::Mlp mlp(config);
  util::Rng rng(13);
  quantize_for_test(mlp, Tensor::randn({8, 7}, rng));

  const QuantizedArtifact artifact = export_model(mlp);
  auto restored = instantiate(artifact);
  const auto original_aqs = mlp.activation_quantizers();
  const auto restored_aqs = restored->activation_quantizers();
  ASSERT_EQ(original_aqs.size(), restored_aqs.size());
  for (std::size_t i = 0; i < original_aqs.size(); ++i) {
    EXPECT_EQ(restored_aqs[i]->bits(), original_aqs[i]->bits());
    EXPECT_EQ(restored_aqs[i]->max_activation(), original_aqs[i]->max_activation());
    EXPECT_FALSE(restored_aqs[i]->calibrating());
  }
}

/// The default zoo's artifact named `name`.
QuantizedArtifact zoo_artifact(const std::string& name) {
  for (serve::ZooModel& model : serve::default_zoo()) {
    if (model.name == name) return std::move(model.artifact);
  }
  ADD_FAILURE() << "no zoo model " << name;
  return {};
}

/// Architecture parameters instantiate_model must refuse before building
/// a layer: negative widths (which reached the tensor constructor as
/// std::invalid_argument), a width whose conv weights need 144 TiB
/// (std::bad_alloc, or an abort under AddressSanitizer), and a seed no
/// uint64 holds (an undefined float-to-int conversion).
TEST(ArchDescriptor, CompileRejectsNegativeVggWidth) {
  QuantizedArtifact artifact = zoo_artifact("vgg_small");
  artifact.arch.params["c1"] = -16;
  EXPECT_THROW(compile_plan(artifact), ArtifactError);
}

TEST(ArchDescriptor, CompileRejectsNegativeMlpHiddenWidth) {
  QuantizedArtifact artifact = zoo_artifact("mlp");
  artifact.arch.params["hidden0"] = -32;
  EXPECT_THROW(compile_plan(artifact), ArtifactError);
}

TEST(ArchDescriptor, CompileRejectsVggWidthPastTheElementBudget) {
  QuantizedArtifact artifact = zoo_artifact("vgg_small");
  // Past the width bound, then inside it but past the element budget.
  for (const char* width : {"2097152", "65536"}) {
    artifact.arch.params["c2"] = std::stod(width);
    try {
      compile_plan(artifact);
      ADD_FAILURE() << "compile_plan accepted c2 = " << width;
    } catch (const ArtifactError& e) {
      EXPECT_NE(std::string::npos, std::string(e.what()).find(width)) << e.what();
      EXPECT_NE(std::string::npos, std::string(e.what()).find("c2")) << e.what();
    }
  }
}

TEST(ArchDescriptor, CompileRejectsSeedOutsideUint64) {
  QuantizedArtifact artifact = zoo_artifact("resnet20");
  artifact.arch.params["seed"] = 1e300;
  try {
    compile_plan(artifact);
    ADD_FAILURE() << "compile_plan accepted seed = 1e300";
  } catch (const ArtifactError& e) {
    EXPECT_NE(std::string::npos, std::string(e.what()).find("'seed'")) << e.what();
  }
}

/// Seeded artifact fuzzer over the default zoo: each mutant of a saved
/// artifact gets 1-4 payload mutations — a bit flip, a random byte, an
/// interesting u32, or +-2 on a byte — half of them in the payload's
/// first KiB (the architecture descriptor and quantizer table), then a
/// recomputed CRC, so the structural checks behind it are what stand.
/// Every mutant must either be refused with ArtifactError, or load,
/// compile, verify and run a 2-sample batch byte-identically on the
/// scalar and simd backends. Part of the sanitizer lane.
TEST(ArtifactFuzz, MutantsAreRefusedOrRunIdentically) {
  constexpr int kSeedsPerModel = 300;
  constexpr std::size_t kHeader = 16;  // magic, version, payload size
  constexpr std::uint32_t kInteresting[] = {0u,          1u,          0x7fu,       0x80u,
                                            0xffu,       0x7fffu,     0x8000u,     0xffffu,
                                            0x10000u,    0x7fffffffu, 0x80000000u, 0xffffffffu};
  const std::string path = temp_path("fuzz.cqar");
  int refused = 0, ran = 0;
  for (serve::ZooModel& model : serve::default_zoo()) {
    save_artifact(path, model.artifact);
    std::vector<std::uint8_t> original;
    {
      std::ifstream in(path, std::ios::binary);
      original.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    ASSERT_GT(original.size(), kHeader + 4);
    const std::size_t payload = original.size() - kHeader - 4;
    util::Rng rng(0xC0A5);
    const auto pick = [&rng](std::size_t n) {  // uniform in [0, n)
      return static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    };
    for (int seed = 0; seed < kSeedsPerModel; ++seed) {
      std::vector<std::uint8_t> bytes = original;
      const std::size_t mutations = 1 + pick(4);
      for (std::size_t m = 0; m < mutations; ++m) {
        const std::size_t at = kHeader + pick(pick(2) == 0 ? std::min<std::size_t>(1024, payload)
                                                           : payload);
        switch (pick(4)) {
          case 0:
            bytes[at] ^= static_cast<std::uint8_t>(1u << pick(8));
            break;
          case 1:
            bytes[at] = static_cast<std::uint8_t>(pick(256));
            break;
          case 2: {
            const std::uint32_t v = kInteresting[pick(std::size(kInteresting))];
            std::memcpy(bytes.data() + at, &v, std::min<std::size_t>(4, kHeader + payload - at));
            break;
          }
          default:
            bytes[at] = static_cast<std::uint8_t>(bytes[at] + (pick(2) == 0 ? 2 : -2));
            break;
        }
      }
      const std::uint32_t crc = util::crc32(bytes.data() + kHeader, payload);
      std::memcpy(bytes.data() + kHeader + payload, &crc, sizeof crc);
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(bytes.data()),
                  static_cast<std::streamsize>(bytes.size()));
      }
      const std::string what = model.name + " seed " + std::to_string(seed);
      try {
        const auto plan =
            std::make_shared<const ExecutionPlan>(compile_plan(load_artifact(path)));
        serve::EngineSession scalar(plan, 1, {}, make_backend(BackendKind::Scalar));
        serve::EngineSession simd(plan, 1, {}, make_backend(BackendKind::Simd));
        const Tensor input = serve::random_batch(plan->sample_shape(), 2,
                                                 static_cast<std::uint64_t>(seed));
        const Tensor a = scalar.run(input);
        const Tensor b = simd.run(input);
        ASSERT_EQ(a.shape(), b.shape()) << what;
        ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.numel() * sizeof(float))) << what;
        ++ran;
      } catch (const ArtifactError&) {
        ++refused;
      } catch (const std::exception& e) {
        ADD_FAILURE() << what << " escaped ArtifactError: " << e.what();
      }
    }
  }
  std::remove(path.c_str());
  RecordProperty("refused", refused);
  RecordProperty("ran", ran);
  EXPECT_EQ(3 * kSeedsPerModel, refused + ran);
  EXPECT_GT(refused, 0);
  EXPECT_GT(ran, 0);
}

}  // namespace
}  // namespace cq::deploy
