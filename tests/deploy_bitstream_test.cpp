#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "deploy/bitstream.h"
#include "util/rng.h"

namespace cq::deploy {
namespace {

TEST(BitWriter, EmptyStreamHasNoBytes) {
  BitWriter w;
  EXPECT_EQ(w.bit_count(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BitWriter, PacksLsbFirstWithinByte) {
  BitWriter w;
  w.append(0b1, 1);
  w.append(0b0, 1);
  w.append(0b11, 2);
  ASSERT_EQ(w.bytes().size(), 1u);
  // bit0=1, bit1=0, bits2-3=11 -> 0b00001101.
  EXPECT_EQ(w.bytes()[0], 0b00001101u);
}

TEST(BitWriter, ZeroBitAppendIsNoOp) {
  BitWriter w;
  w.append(0, 0);
  EXPECT_EQ(w.bit_count(), 0u);
  EXPECT_TRUE(w.bytes().empty());
}

TEST(BitWriter, RejectsOversizedCode) {
  BitWriter w;
  EXPECT_THROW(w.append(4, 2), std::invalid_argument);
  EXPECT_THROW(w.append(0, -1), std::invalid_argument);
  EXPECT_THROW(w.append(0, 33), std::invalid_argument);
}

TEST(BitWriter, AlignToBytePadsWithZeros) {
  BitWriter w;
  w.append(0b101, 3);
  w.align_to_byte();
  EXPECT_EQ(w.bit_count(), 8u);
  w.append(0xFF, 8);
  ASSERT_EQ(w.bytes().size(), 2u);
  EXPECT_EQ(w.bytes()[0], 0b00000101u);
  EXPECT_EQ(w.bytes()[1], 0xFFu);
}

TEST(BitReader, ReadsBackWhatWasWritten) {
  BitWriter w;
  w.append(5, 3);
  w.append(0, 1);
  w.append(200, 8);
  w.append(70000, 20);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(3), 5u);
  EXPECT_EQ(r.read(1), 0u);
  EXPECT_EQ(r.read(8), 200u);
  EXPECT_EQ(r.read(20), 70000u);
}

TEST(BitReader, ZeroBitReadConsumesNothing) {
  BitWriter w;
  w.append(3, 2);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(0), 0u);
  EXPECT_EQ(r.position(), 0u);
  EXPECT_EQ(r.read(2), 3u);
}

TEST(BitReader, ThrowsPastEndOfStream) {
  BitWriter w;
  w.append(1, 4);
  BitReader r(w.bytes());
  r.read(4);
  // The partial byte's padding is readable; past the byte is not.
  EXPECT_EQ(r.read(4), 0u);
  EXPECT_THROW(r.read(1), std::out_of_range);
}

TEST(BitReader, RowPastEndThrowsAndConsumesNothing) {
  BitWriter w;
  for (int i = 0; i < 5; ++i) w.append(5, 3);  // 15 bits: 2 bytes
  BitReader r(w.bytes(), 1);
  std::vector<std::int32_t> row(6);  // 1 + 6 * 3 = 19 bits > 16
  EXPECT_THROW(r.read(3, row), std::out_of_range);
  EXPECT_EQ(r.position(), 1u);
  EXPECT_THROW(BitReader(w.bytes(), 17).read(1), std::out_of_range);
  row.resize(5);  // 1 + 15 = 16 bits: ends exactly on the last byte
  r.read(3, row);
  EXPECT_EQ(r.position(), 16u);
}

TEST(BitReader, RejectsBadWidth) {
  BitWriter w;
  w.append(0xFFFFFFFFu, 32);
  BitReader r(w.bytes());
  std::vector<std::int32_t> row(1);
  EXPECT_THROW(r.read(-1, row), std::invalid_argument);
  EXPECT_THROW(r.read(33, row), std::invalid_argument);
  EXPECT_THROW(r.read(33), std::invalid_argument);
  EXPECT_EQ(r.position(), 0u);
}

/// Row reads against BitWriter output at every width 0-16, every start
/// offset within a byte (behind 0-2 whole bytes) and row lengths 0-70.
/// Each stream is copied into an exactly sized buffer and the row is the
/// last thing written, so it ends on the buffer's last byte: a window
/// refill that read one byte too far would show under ASan.
TEST(BitReader, SeededRowsRoundTripAtEveryOffset) {
  util::Rng rng(4242);
  for (int bits = 0; bits <= 16; ++bits) {
    const std::uint32_t max_code = bits == 0 ? 0u : (1u << bits) - 1u;
    for (int offset = 0; offset < 8; ++offset) {
      for (int length = 0; length <= 70; ++length) {
        const int lead_bytes = static_cast<int>(rng.uniform_int(0, 2));
        const std::size_t start = static_cast<std::size_t>(8 * lead_bytes + offset);
        BitWriter w;
        for (std::size_t i = 0; i < start; ++i) {
          w.append(static_cast<std::uint32_t>(rng.uniform_int(0, 1)), 1);
        }
        std::vector<std::int32_t> expected(static_cast<std::size_t>(length));
        for (std::int32_t& code : expected) {
          code = static_cast<std::int32_t>(rng.uniform_int(0, max_code));
          w.append(static_cast<std::uint32_t>(code), bits);
        }
        const std::vector<std::uint8_t> exact(w.bytes().begin(), w.bytes().end());
        BitReader r(exact, start);
        std::vector<std::int32_t> row(expected.size(), -1);
        r.read(bits, row);
        ASSERT_EQ(row, expected) << "bits " << bits << " start " << start << " length "
                                 << length;
        ASSERT_EQ(r.position(), start + expected.size() * static_cast<std::size_t>(bits));
      }
    }
  }
}

TEST(BitReader, AlignMirrorsWriter) {
  BitWriter w;
  w.append(0b11, 2);
  w.align_to_byte();
  w.append(0b1010101, 7);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read(2), 0b11u);
  r.align_to_byte();
  EXPECT_EQ(r.read(7), 0b1010101u);
}

class BitstreamRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitstreamRoundTrip, RandomCodesSurviveAnyWidth) {
  const int bits = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(bits) * 7919 + 3);
  std::vector<std::uint32_t> codes(257);
  const std::uint32_t max_code =
      bits >= 32 ? 0xFFFFFFFFu : ((1u << bits) - 1u);
  for (auto& c : codes) {
    c = static_cast<std::uint32_t>(rng.uniform_int(0, max_code));
  }

  BitWriter w;
  for (const auto c : codes) w.append(c, bits);
  EXPECT_EQ(w.bit_count(), codes.size() * static_cast<std::size_t>(bits));

  BitReader r(w.bytes());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(r.read(bits), codes[i]) << "index " << i << " bits " << bits;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, BitstreamRoundTrip,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 24, 31, 32));

TEST(BitstreamRoundTrip, MixedWidthSequence) {
  util::Rng rng(99);
  std::vector<std::pair<std::uint32_t, int>> entries;
  for (int i = 0; i < 500; ++i) {
    const int bits = static_cast<int>(rng.uniform_int(0, 12));
    const std::uint32_t max_code = bits == 0 ? 0u : ((1u << bits) - 1u);
    entries.emplace_back(static_cast<std::uint32_t>(rng.uniform_int(0, max_code)), bits);
  }
  BitWriter w;
  for (const auto& [code, bits] : entries) w.append(code, bits);
  BitReader r(w.bytes());
  for (const auto& [code, bits] : entries) {
    EXPECT_EQ(r.read(bits), code);
  }
}

}  // namespace
}  // namespace cq::deploy
