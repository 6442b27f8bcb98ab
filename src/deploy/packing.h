#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "deploy/bitstream.h"
#include "quant/bitwidth.h"

namespace cq::deploy {

/// Storage form of one quantized layer: per-filter bit-widths plus the
/// weights of every unpruned filter packed as k-bit quantizer codes.
/// Pruned (0-bit) filters contribute no payload at all. Biases stay
/// with the dense float state of the artifact (they are not quantized
/// in the paper's scheme and are negligible in size).
struct PackedLayer {
  std::string name;
  std::int32_t num_filters = 0;
  std::int64_t weights_per_filter = 0;
  float range_hi = 0.0f;               ///< symmetric clip bound of Eq. (1)
  std::vector<std::uint8_t> filter_bits;
  std::vector<std::uint8_t> codes;     ///< LSB-first packed payload

  /// Exact payload size in bits (sum over filters of bits * weights).
  std::size_t payload_bits() const;

  /// Bits per stored weight including pruned filters in the
  /// denominator — the artifact-level analogue of the paper's average
  /// bit-width statistic.
  double bits_per_weight() const;

  /// Why `codes` cannot be this layer's payload, or "" when it can: one
  /// width per filter, every width <= 16 (pack_layer's limit), and
  /// exactly the bytes the stored widths need — none at all when the
  /// clip range is degenerate (range_hi <= 0: an all-zero layer, whose
  /// codes all read as 0). Never overflows, for any field values, so
  /// load_artifact and verify_plan's code-range rule run it before any
  /// row is read.
  std::string payload_error() const;
};

/// Decodes a PackedLayer's filter rows in order, from filter `first`
/// (0 <= first <= num_filters) on. This and pack_layer are the only code that knows the payload
/// layout (filters in order, each unpruned filter's weights at its own
/// width): the scalar reference kernels, the SIMD panel packer, the
/// overflow bound and unpack_layer all read weights through it. The
/// layer must outlive the reader and pass payload_error(); a row
/// running past the payload throws std::out_of_range.
class FilterRows {
 public:
  explicit FilterRows(const PackedLayer& layer, std::int32_t first = 0);

  /// Decodes the next filter's weights_per_filter codes into `row`
  /// (all 0 for a pruned filter or a degenerate range) and advances.
  /// Throws std::invalid_argument when row has another length.
  void read(std::span<std::int32_t> row);

  /// Advances past the next filter without decoding it.
  void skip();

 private:
  /// Moves to the next filter, returning the bits each of its codes
  /// occupies; throws std::invalid_argument past the last filter.
  int advance();

  const PackedLayer& layer_;
  std::int32_t next_ = 0;
  BitReader reader_;
};

/// Snapshots `layer` (which must have per-filter bits assigned) into a
/// PackedLayer. The codes are produced with the same clip range and
/// float arithmetic as the layer's fake-quant forward, so unpacking
/// reproduces the effective weights bit-exactly.
PackedLayer pack_layer(const quant::QuantizableLayer& layer, std::string name);

/// Restores a PackedLayer into a structurally matching layer: decoded
/// weights are written to the master weight storage, the per-filter
/// bit-widths are re-applied, and the clip range is frozen at the
/// packed range so re-quantization in forward() is the identity on the
/// decoded values. Throws std::invalid_argument on any shape mismatch.
void unpack_layer(const PackedLayer& packed, quant::QuantizableLayer& layer);

}  // namespace cq::deploy
