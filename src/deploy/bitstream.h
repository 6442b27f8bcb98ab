#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace cq::deploy {

/// Append-only writer of variable-width integer codes into a byte
/// stream, LSB-first within each byte. This is the storage codec of
/// the deployment artifact: filters quantized to k bits store each
/// weight as a k-bit code, so a 2.0-average-bit model really occupies
/// ~2 bits per weight on disk.
///
/// Codes of width 0 are legal no-ops (pruned filters contribute no
/// payload), matching the paper's "0-bit means pruned" convention.
class BitWriter {
 public:
  /// Appends the low `bits` bits of `code`. Requires 0 <= bits <= 32
  /// and code < 2^bits.
  void append(std::uint32_t code, int bits);

  /// Pads the current partial byte with zero bits (stream-level
  /// alignment between layers so each layer's payload is byte-addressable).
  void align_to_byte();

  /// Total bits appended so far (excluding alignment padding still
  /// pending in the partial byte).
  std::size_t bit_count() const { return bit_count_; }

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() &&;

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;  ///< bits appended (bytes_ holds ceil/8)
};

/// Reader of codes written by BitWriter, from any bit offset. A row of
/// same-width codes is one call: one bounds check for the whole row,
/// then each code is cut from a 64-bit window refilled a byte at a
/// time, never past the stream's last byte.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> bytes, std::size_t bit_offset = 0)
      : bytes_(bytes), pos_(bit_offset) {}

  /// Reads codes.size() consecutive `bits`-bit codes. bits == 0 writes
  /// zeros without consuming anything. Throws std::invalid_argument
  /// unless 0 <= bits <= 32, and std::out_of_range (consuming nothing)
  /// when the row runs past the end. A 32-bit code lands as its
  /// two's-complement int32 bit pattern.
  void read(int bits, std::span<std::int32_t> codes);

  /// Reads one `bits`-bit code: a row of one.
  std::uint32_t read(int bits);

  /// Skips to the next byte boundary (inverse of align_to_byte).
  void align_to_byte();

  /// Bit cursor: the start offset plus the bits consumed since.
  std::size_t position() const { return pos_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;  ///< bit cursor
};

}  // namespace cq::deploy
