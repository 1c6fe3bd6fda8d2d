// Unit tests for the LSB-first bit stream convention (DESIGN.md §3) — the
// glue between byte files and the bit-oriented cipher.
#include "src/util/bitstream.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/util/rng.hpp"

namespace mhhea::util {
namespace {

TEST(BitReader, LsbFirstWithinByte) {
  const std::array<std::uint8_t, 1> data = {0b10110010};
  BitReader r(data);
  // Bit 0 (LSB) must come out first.
  EXPECT_FALSE(r.read_bit());
  EXPECT_TRUE(r.read_bit());
  EXPECT_FALSE(r.read_bit());
  EXPECT_FALSE(r.read_bit());
  EXPECT_TRUE(r.read_bit());
  EXPECT_TRUE(r.read_bit());
  EXPECT_FALSE(r.read_bit());
  EXPECT_TRUE(r.read_bit());
  EXPECT_TRUE(r.eof());
}

TEST(BitReader, ReadBitsPacksLsbFirst) {
  const std::array<std::uint8_t, 2> data = {0xD0, 0x48};  // word 0x48D0 LE
  BitReader r(data);
  EXPECT_EQ(r.read_bits(16), 0x48D0u);
  EXPECT_TRUE(r.eof());
}

TEST(BitReader, PartialReadAtEof) {
  const std::array<std::uint8_t, 1> data = {0xFF};
  BitReader r(data);
  int got = 0;
  EXPECT_EQ(r.read_bits(5, &got), 0b11111u);
  EXPECT_EQ(got, 5);
  EXPECT_EQ(r.read_bits(5, &got), 0b111u);  // only 3 left, zero-extended
  EXPECT_EQ(got, 3);
  EXPECT_TRUE(r.eof());
  EXPECT_EQ(r.read_bits(4, &got), 0u);
  EXPECT_EQ(got, 0);
}

TEST(BitReader, UnderReadWithoutOutParamThrows) {
  // Without the out-param there is no way to observe a short read, so it
  // must be an error in every build mode — not an assert that vanishes
  // under NDEBUG and silently embeds zero bits.
  const std::array<std::uint8_t, 1> data = {0xFF};
  BitReader r(data);
  EXPECT_EQ(r.read_bits(6), 0b111111u);
  EXPECT_THROW((void)r.read_bits(3), std::out_of_range);
  // The failed read consumes nothing; a sized read still works.
  EXPECT_EQ(r.remaining_bits(), 2u);
  EXPECT_EQ(r.read_bits(2), 0b11u);
  EXPECT_THROW((void)r.read_bits(1), std::out_of_range);
  EXPECT_EQ(r.read_bits(0), 0u);  // zero-bit read is always satisfiable
}

TEST(BitReader, BulkReadMatchesBitByBit) {
  // The word-at-a-time fast path must agree with the single-bit reference
  // for every (offset, width) shape.
  Xoshiro256 rng(0xB17);
  std::vector<std::uint8_t> data(64);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  for (int trial = 0; trial < 2000; ++trial) {
    BitReader bulk(data);
    BitReader ref(data);
    // Random pre-read to de-align the cursor.
    const int skip = static_cast<int>(rng.below(40));
    (void)bulk.read_bits(skip);
    (void)ref.read_bits(skip);
    const int n = static_cast<int>(rng.below(65));
    int got_bulk = 0;
    const std::uint64_t v = bulk.read_bits(n, &got_bulk);
    std::uint64_t expect = 0;
    int got_ref = 0;
    while (got_ref < n && !ref.eof()) {
      expect |= static_cast<std::uint64_t>(ref.read_bit()) << got_ref;
      ++got_ref;
    }
    ASSERT_EQ(v, expect) << "skip=" << skip << " n=" << n;
    ASSERT_EQ(got_bulk, got_ref);
    ASSERT_EQ(bulk.position(), ref.position());
  }
}

TEST(BitReader, PeekDoesNotConsume) {
  const std::array<std::uint8_t, 1> data = {0b101};
  BitReader r(data);
  EXPECT_TRUE(r.peek_bit(0));
  EXPECT_FALSE(r.peek_bit(1));
  EXPECT_TRUE(r.peek_bit(2));
  EXPECT_EQ(r.position(), 0u);
}

TEST(BitReader, RewindRestarts) {
  const std::array<std::uint8_t, 1> data = {0x81};
  BitReader r(data);
  (void)r.read_bits(8);
  EXPECT_TRUE(r.eof());
  r.rewind();
  EXPECT_EQ(r.read_bits(8), 0x81u);
}

TEST(SpanBitWriter, BulkWritesMatchBitByBitAcrossAlignments) {
  // Random widths keep the cursor at every in-byte alignment, and high
  // garbage bits are ignored; the bytes read back bit for bit.
  Xoshiro256 rng(0x3117);
  std::vector<bool> bits;
  std::vector<std::uint8_t> buf(2000 * 8);
  SpanBitWriter w(buf);
  for (int trial = 0; trial < 2000; ++trial) {
    const int n = static_cast<int>(rng.below(65));
    const std::uint64_t v = rng.next();  // bits above n must be ignored
    w.write_bits(v, n);
    for (int i = 0; i < n; ++i) bits.push_back(((v >> i) & 1) != 0);
    ASSERT_EQ(w.size_bits(), bits.size()) << trial;
  }
  w.flush();
  BitReader r(std::span<const std::uint8_t>(buf).first((bits.size() + 7) / 8));
  for (std::size_t i = 0; i < bits.size(); ++i) ASSERT_EQ(r.read_bit(), bits[i]) << i;
  while (!r.eof()) EXPECT_FALSE(r.read_bit());  // flush zero-pads the last byte
}

TEST(SpanBitWriter, RunningPastTheSpanThrows) {
  std::array<std::uint8_t, 2> buf{};
  SpanBitWriter w(buf);
  w.write_bits(0xABCD, 16);
  EXPECT_EQ(buf[0], 0xCD);
  EXPECT_EQ(buf[1], 0xAB);
  w.write_bits(0b1, 1);  // pending in the accumulator, not yet stored
  EXPECT_THROW(w.flush(), std::length_error);
}

TEST(Words16, RoundTrip) {
  const std::vector<std::uint8_t> bytes = {0x34, 0x12, 0xCD, 0xAB, 0x99};
  const auto words = to_words16(bytes);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], 0x1234u);  // little-endian pairs
  EXPECT_EQ(words[1], 0xABCDu);
  EXPECT_EQ(words[2], 0x0099u);  // zero-padded tail
  EXPECT_EQ(from_words16(words, bytes.size()), bytes);
}

TEST(Words16, EmptyInput) {
  EXPECT_TRUE(to_words16({}).empty());
  EXPECT_TRUE(from_words16({}, 0).empty());
}

TEST(Words16, PaperPlaintextWordOrder) {
  // The simulation loads "ABCD1234": as a little-endian 32-bit value its
  // low word 0x1234 is the first frame ("the least significant 16 bits are
  // placed in the buffer", §IV).
  const std::vector<std::uint8_t> bytes = {0x34, 0x12, 0xCD, 0xAB};
  const auto words = to_words16(bytes);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ(words[0], 0x1234u);
  EXPECT_EQ(words[1], 0xABCDu);
}

}  // namespace
}  // namespace mhhea::util
