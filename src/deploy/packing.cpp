#include "deploy/packing.h"

#include <limits>
#include <stdexcept>

#include "quant/uniform.h"

namespace cq::deploy {

std::size_t PackedLayer::payload_bits() const {
  std::size_t bits = 0;
  for (const std::uint8_t b : filter_bits) {
    bits += static_cast<std::size_t>(b) * static_cast<std::size_t>(weights_per_filter);
  }
  return bits;
}

double PackedLayer::bits_per_weight() const {
  const auto total =
      static_cast<double>(num_filters) * static_cast<double>(weights_per_filter);
  if (total <= 0.0) return 0.0;
  return static_cast<double>(payload_bits()) / total;
}

namespace {

/// Bits each code of filter k occupies in the payload: its width, or 0
/// when the clip range pack_layer encodes against, {-range_hi,
/// range_hi}, is degenerate (range_hi <= 0 or NaN), which stores nothing.
int stored_bits(const PackedLayer& layer, std::int32_t k) {
  return layer.range_hi > 0.0f ? layer.filter_bits[static_cast<std::size_t>(k)] : 0;
}

}  // namespace

std::string PackedLayer::payload_error() const {
  if (num_filters < 0 || weights_per_filter < 0) return "negative layer geometry";
  if (filter_bits.size() != static_cast<std::size_t>(num_filters)) {
    return std::to_string(filter_bits.size()) + " filter widths for " +
           std::to_string(num_filters) + " filters";
  }
  std::uint64_t width_sum = 0;  // <= 16 * 2^31 filters: cannot wrap
  for (std::int32_t k = 0; k < num_filters; ++k) {
    const int bits = filter_bits[static_cast<std::size_t>(k)];
    if (bits > 16) {
      return "filter " + std::to_string(k) + " declares " + std::to_string(bits) +
             " bits, outside [0, 16]";
    }
    width_sum += static_cast<std::uint64_t>(stored_bits(*this, k));
  }
  const auto per_filter = static_cast<std::uint64_t>(weights_per_filter);
  if (width_sum != 0 && per_filter > std::numeric_limits<std::uint64_t>::max() / width_sum) {
    return "payload bit count overflows";
  }
  const std::uint64_t need_bits = width_sum * per_filter;
  const std::uint64_t need = need_bits / 8 + (need_bits % 8 != 0 ? 1 : 0);
  if (codes.size() != need) {
    return "payload holds " + std::to_string(codes.size()) + " bytes, its widths need " +
           std::to_string(need);
  }
  return {};
}

FilterRows::FilterRows(const PackedLayer& layer, std::int32_t first)
    : layer_(layer), reader_(layer.codes) {
  while (next_ < first) skip();
}

int FilterRows::advance() {
  if (static_cast<std::size_t>(next_) >= layer_.filter_bits.size()) {
    throw std::invalid_argument("FilterRows: no filter " + std::to_string(next_) +
                                " in layer '" + layer_.name + "'");
  }
  return stored_bits(layer_, next_++);
}

void FilterRows::read(std::span<std::int32_t> row) {
  if (row.size() != static_cast<std::size_t>(layer_.weights_per_filter)) {
    throw std::invalid_argument("FilterRows::read: " + std::to_string(row.size()) +
                                "-code row for layer '" + layer_.name + "'");
  }
  reader_.read(advance(), row);
}

void FilterRows::skip() {
  // The payload is the filters' rows back to back, each at its stored
  // width, so the next row starts right after this one.
  const auto bits = static_cast<std::size_t>(advance());
  reader_ = BitReader(layer_.codes, reader_.position() +
                                        bits * static_cast<std::size_t>(layer_.weights_per_filter));
}

PackedLayer pack_layer(const quant::QuantizableLayer& layer, std::string name) {
  const std::vector<int>& bits = layer.filter_bits();
  if (bits.empty()) {
    throw std::invalid_argument("pack_layer: layer '" + name +
                                "' has no bit-width arrangement assigned");
  }
  PackedLayer packed;
  packed.name = std::move(name);
  packed.num_filters = layer.num_filters();
  packed.weights_per_filter = static_cast<std::int64_t>(layer.weights_per_filter());
  packed.range_hi = layer.weight_range_override() > 0.0f ? layer.weight_range_override()
                                                         : layer.weight_abs_max();

  const quant::UniformRange range{-packed.range_hi, packed.range_hi};
  BitWriter writer;
  packed.filter_bits.reserve(bits.size());
  for (int k = 0; k < packed.num_filters; ++k) {
    const int b = bits[static_cast<std::size_t>(k)];
    if (b < 0 || b > 16) {
      throw std::invalid_argument("pack_layer: filter bit-width out of [0,16]");
    }
    packed.filter_bits.push_back(static_cast<std::uint8_t>(b));
    if (stored_bits(packed, k) == 0) continue;  // pruned / degenerate: no payload
    for (const float w : layer.filter_weights(k)) {
      writer.append(static_cast<std::uint32_t>(quant::encode(w, range, b)), b);
    }
  }
  writer.align_to_byte();
  packed.codes = std::move(writer).take();
  return packed;
}

void unpack_layer(const PackedLayer& packed, quant::QuantizableLayer& layer) {
  if (packed.num_filters != layer.num_filters() ||
      packed.weights_per_filter != static_cast<std::int64_t>(layer.weights_per_filter())) {
    throw std::invalid_argument("unpack_layer: shape mismatch for layer '" + packed.name +
                                "'");
  }
  if (packed.filter_bits.size() != static_cast<std::size_t>(packed.num_filters)) {
    throw std::invalid_argument("unpack_layer: filter_bits size mismatch for layer '" +
                                packed.name + "'");
  }

  const quant::UniformRange range{-packed.range_hi, packed.range_hi};
  FilterRows rows(packed);
  std::vector<std::int32_t> codes(static_cast<std::size_t>(packed.weights_per_filter));
  for (int k = 0; k < packed.num_filters; ++k) {
    rows.read(codes);
    std::span<float> weights = layer.mutable_filter_weights(k);
    const int b = stored_bits(packed, k);
    for (std::size_t j = 0; j < weights.size(); ++j) {
      weights[j] = b == 0 ? 0.0f : quant::decode(codes[j], range, b);
    }
  }
  layer.set_filter_bits(
      std::vector<int>(packed.filter_bits.begin(), packed.filter_bits.end()));
  layer.set_weight_range_override(packed.range_hi);
}

}  // namespace cq::deploy
