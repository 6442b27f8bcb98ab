#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "deploy/packing.h"
#include "nn/models/model.h"
#include "tensor/tensor.h"

namespace cq::deploy {

/// Thrown for any malformed, truncated or corrupted artifact file.
class ArtifactError : public std::runtime_error {
 public:
  explicit ArtifactError(const std::string& what) : std::runtime_error(what) {}
};

/// Self-contained description of a model architecture, sufficient to
/// re-instantiate it on the deployment side without the training code
/// knowing which concrete class it was. `kind` names the model zoo
/// entry; `params` holds its config fields by name (integral fields
/// are stored exactly — every config value fits a double).
struct ArchDescriptor {
  std::string kind;
  std::map<std::string, double> params;

  /// Returns params.at(key) rounded to int; throws ArtifactError with
  /// a useful message when the key is missing.
  int int_param(const std::string& key) const;
  double param(const std::string& key) const;
};

/// Snapshot of one activation fake-quantizer: its bit-width A and the
/// calibrated clip bound (Section II-A, activation branch).
struct ActQuantState {
  std::int32_t bits = 0;
  float max_activation = 0.0f;
};

/// A deployable quantized model:
///  - the architecture descriptor,
///  - every quantized layer's weights as packed sub-byte codes,
///  - all remaining parameters/buffers (first/output layers, biases,
///    batch-norm state) as dense float tensors,
///  - the activation quantizer calibration.
/// This is what the paper's method ultimately ships to the resource-
/// constrained device its introduction motivates.
struct QuantizedArtifact {
  ArchDescriptor arch;
  std::vector<ActQuantState> act_quants;
  std::vector<PackedLayer> packed_layers;     ///< scored-layer traversal order
  std::map<std::string, tensor::Tensor> dense;  ///< "p<i>"/"b<i>" keyed state
};

/// Byte-level size breakdown of an artifact (the deployment payload,
/// ignoring fixed format framing).
struct SizeReport {
  std::size_t packed_code_bytes = 0;   ///< sub-byte weight payload
  std::size_t packed_meta_bytes = 0;   ///< per-filter bit tables + ranges
  std::size_t dense_bytes = 0;         ///< fp32 residual state
  std::size_t act_quant_bytes = 0;
  std::size_t fp32_weight_bytes = 0;   ///< quantized layers' weights at fp32

  std::size_t total_bytes() const {
    return packed_code_bytes + packed_meta_bytes + dense_bytes + act_quant_bytes;
  }
  /// fp32 size of the same model (dense state + unpacked weights)
  /// divided by the artifact size.
  double compression_ratio() const;
};

/// Builds the architecture descriptor for a model-zoo network
/// (VggSmall, ResNet20, Mlp). Throws ArtifactError for unknown kinds.
ArchDescriptor describe_model(nn::Model& model);

/// Re-creates the architecture a descriptor names, structure only
/// (nn::StructureOnly): every weight is zero until a caller restores
/// it, and no initial weights are drawn.
std::unique_ptr<nn::Model> instantiate_model(const ArchDescriptor& arch);

/// Exports a quantized model (every scored layer must carry a
/// bit-width arrangement) into an artifact. The model is not modified.
QuantizedArtifact export_model(nn::Model& model);

/// Re-instantiates the architecture, restores dense state, unpacks the
/// quantized layers and applies the activation calibration. The result
/// is in eval mode and produces bit-identical outputs to the exported
/// model's fake-quant forward. Throws ArtifactError when the artifact
/// does not fit the architecture, checked before any layer is unpacked.
std::unique_ptr<nn::Model> instantiate(const QuantizedArtifact& artifact);

/// instantiate() without the unpacking: every packed layer is checked
/// against its architecture layer (one per quantizable layer, same
/// filter count and weights per filter, a payload its widths describe)
/// but the quantizable layers keep zero weights until unpack_layer
/// fills them. compile_plan unpacks only the layers it lowers to float
/// ops.
std::unique_ptr<nn::Model> instantiate_unpacked(const QuantizedArtifact& artifact);

/// Binary serialization with CRC-32 integrity protection. save throws
/// on I/O failure; load throws ArtifactError on bad magic, version,
/// checksum or any structural problem.
void save_artifact(const std::string& path, const QuantizedArtifact& artifact);
QuantizedArtifact load_artifact(const std::string& path);

/// Size accounting of the deployment payload.
SizeReport size_report(const QuantizedArtifact& artifact);

}  // namespace cq::deploy
