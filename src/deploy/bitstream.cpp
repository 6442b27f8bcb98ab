#include "deploy/bitstream.h"

#include <algorithm>
#include <stdexcept>

namespace cq::deploy {

void BitWriter::append(std::uint32_t code, int bits) {
  if (bits < 0 || bits > 32) {
    throw std::invalid_argument("BitWriter::append: bits out of [0,32]");
  }
  if (bits < 32 && (code >> bits) != 0) {
    throw std::invalid_argument("BitWriter::append: code does not fit in bits");
  }
  for (int i = 0; i < bits; ++i) {
    const std::size_t byte = bit_count_ / 8;
    const int offset = static_cast<int>(bit_count_ % 8);
    if (byte == bytes_.size()) bytes_.push_back(0);
    if ((code >> i) & 1u) {
      bytes_[byte] = static_cast<std::uint8_t>(bytes_[byte] | (1u << offset));
    }
    ++bit_count_;
  }
}

void BitWriter::align_to_byte() { bit_count_ = (bit_count_ + 7) / 8 * 8; }

std::vector<std::uint8_t> BitWriter::take() && { return std::move(bytes_); }

void BitReader::read(int bits, std::span<std::int32_t> codes) {
  if (bits < 0 || bits > 32) {
    throw std::invalid_argument("BitReader::read: bits out of [0,32]");
  }
  if (bits == 0) {
    std::fill(codes.begin(), codes.end(), 0);
    return;
  }
  // The row's one bounds check, in division form so a long row cannot
  // wrap the bit count.
  const std::size_t stream_bits = bytes_.size() * 8;
  const auto width = static_cast<std::size_t>(bits);
  if (pos_ > stream_bits || codes.size() > (stream_bits - pos_) / width) {
    throw std::out_of_range("BitReader::read: past end of stream");
  }
  if (codes.empty()) return;
  // The check above puts the cursor's byte inside the stream. The
  // window holds `avail` unread bits, lowest first, with zeros above
  // them. Each refill adds whole bytes until it holds 56 to 63 bits or
  // the stream ends; then every code the window holds is cut out with
  // no branch between them.
  const std::uint8_t* next = bytes_.data() + pos_ / 8;
  const std::uint8_t* const end = bytes_.data() + bytes_.size();
  const int skip = static_cast<int>(pos_ % 8);
  std::uint64_t window = *next++ >> skip;
  int avail = 8 - skip;
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  for (std::size_t done = 0; done < codes.size();) {
    for (; avail < 56 && next != end; avail += 8) {
      window |= std::uint64_t{*next++} << avail;
    }
    // batch * width <= avail < 64: no shift below reaches 64.
    const std::size_t batch =
        std::min(static_cast<std::size_t>(avail) / width, codes.size() - done);
    for (std::size_t j = 0; j < batch; ++j) {
      codes[done + j] =
          static_cast<std::int32_t>(static_cast<std::uint32_t>((window >> (j * width)) & mask));
    }
    window >>= batch * width;
    avail -= static_cast<int>(batch * width);
    done += batch;
  }
  pos_ += codes.size() * width;
}

std::uint32_t BitReader::read(int bits) {
  std::int32_t code = 0;
  read(bits, std::span<std::int32_t>(&code, 1));
  return static_cast<std::uint32_t>(code);
}

void BitReader::align_to_byte() { pos_ = (pos_ + 7) / 8 * 8; }

}  // namespace cq::deploy
