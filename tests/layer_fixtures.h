#pragma once

// Integer layers built from dense codes, for the kernel, backend and
// verifier suites. The codes go through BitWriter in pack_layer's
// layout (filters in order, each unpruned filter's codes at its own
// width, nothing for pruned ones), so a fabricated layer is stored
// exactly like one compile_plan takes from an artifact, and
// decode_rows is the dense view a test compares against.

#include <cstdint>
#include <utility>
#include <vector>

#include "deploy/bitstream.h"
#include "deploy/int_engine.h"

namespace cq::deploy {

/// Packs `codes` ([bits.size()][per_filter] row-major; rows of 0-bit
/// filters are ignored) at the per-filter widths `bits`.
inline IntegerLayer integer_layer_from_codes(std::vector<std::uint8_t> bits,
                                             std::int64_t per_filter, float range_hi,
                                             const std::vector<std::int32_t>& codes,
                                             std::vector<float> bias) {
  IntegerLayer layer;
  layer.num_filters = static_cast<std::int32_t>(bits.size());
  layer.weights_per_filter = per_filter;
  layer.range_hi = range_hi;
  BitWriter writer;
  for (std::size_t k = 0; k < bits.size(); ++k) {
    if (bits[k] == 0) continue;
    for (std::int64_t j = 0; j < per_filter; ++j) {
      writer.append(static_cast<std::uint32_t>(
                        codes[k * static_cast<std::size_t>(per_filter) +
                              static_cast<std::size_t>(j)]),
                    bits[k]);
    }
  }
  writer.align_to_byte();
  layer.codes = std::move(writer).take();
  layer.filter_bits = std::move(bits);
  layer.bias = std::move(bias);
  return layer;
}

/// Every filter row of `layer` decoded through FilterRows,
/// [num_filters][weights_per_filter] row-major.
inline std::vector<std::int32_t> decode_rows(const PackedLayer& layer) {
  const auto per_filter = static_cast<std::size_t>(layer.weights_per_filter);
  std::vector<std::int32_t> codes(static_cast<std::size_t>(layer.num_filters) * per_filter);
  FilterRows rows(layer);
  for (std::int32_t k = 0; k < layer.num_filters; ++k) {
    rows.read(std::span<std::int32_t>(codes).subspan(static_cast<std::size_t>(k) * per_filter,
                                                     per_filter));
  }
  return codes;
}

}  // namespace cq::deploy
