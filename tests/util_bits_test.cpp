// Unit tests for src/util/bits.hpp. The rotation cases include the paper's
// Figure 3 / Figure 8 values, which every higher layer depends on; the
// load/store cases pin the LSB-first bit-stream convention the cipher walk
// reads messages with.
#include "src/util/bits.hpp"

#include <gtest/gtest.h>

#include <array>
#include <tuple>
#include <vector>

#include "src/util/rng.hpp"

namespace mhhea::util {
namespace {

TEST(Bits, Mask64Basics) {
  EXPECT_EQ(mask64(0), 0u);
  EXPECT_EQ(mask64(1), 1u);
  EXPECT_EQ(mask64(3), 0b111u);
  EXPECT_EQ(mask64(16), 0xFFFFu);
  EXPECT_EQ(mask64(63), 0x7FFFFFFFFFFFFFFFull);
  EXPECT_EQ(mask64(64), ~std::uint64_t{0});
}

TEST(Bits, GetSetBit) {
  EXPECT_EQ(get_bit(0b1010, 1), 1u);
  EXPECT_EQ(get_bit(0b1010, 0), 0u);
  EXPECT_EQ(get_bit(0b1010, 3), 1u);
  EXPECT_EQ(set_bit(0, 5, true), 0b100000u);
  EXPECT_EQ(set_bit(0xFF, 0, false), 0xFEu);
  EXPECT_EQ(set_bit(0xFF, 7, true), 0xFFu);  // idempotent
}

TEST(Bits, ExtractMatchesPaperScrambleField) {
  // Fig. 8: V = 0xCA06, K1 = 0, K2 = 3 -> field = V[11..8] = 1010b.
  EXPECT_EQ(extract(0xCA06, 11, 8), 0b1010u);
  // And (field ^ K1) mod 8 = 2 — the paper's KN1.
  EXPECT_EQ((extract(0xCA06, 11, 8) ^ 0u) & mask64(3), 2u);
  EXPECT_EQ(extract(0xFF00, 7, 0), 0u);
  EXPECT_EQ(extract(0xFF00, 15, 8), 0xFFu);
  EXPECT_EQ(extract(0xABCD, 15, 12), 0xAu);
  EXPECT_EQ(extract(~0ull, 63, 63), 1u);
}

TEST(Bits, RotationMatchesFig8WorkedExample) {
  // "rotating the message twice to the left renders the message value equal
  //  to 2341 after being 48D0"
  EXPECT_EQ(rotl16(0x48D0, 2), 0x2341);
  // "the message value 2341 is rotated to the right six times to become 048D"
  EXPECT_EQ(rotr16(0x2341, 6), 0x048D);
}

TEST(Bits, RotationIdentities) {
  EXPECT_EQ(rotl16(0xABCD, 0), 0xABCD);
  EXPECT_EQ(rotl16(0xABCD, 16), 0xABCD);
  EXPECT_EQ(rotl(0b1, 1, 1), 0b1u);  // width-1 rotate is a no-op
  EXPECT_EQ(rotl(0b10, 3, 2), 0b01u);
  EXPECT_EQ(rotr(0b01, 1, 2), 0b10u);
}

class RotateRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RotateRoundTrip, RightUndoesLeft) {
  const auto [width, n] = GetParam();
  // A pattern with no symmetry in the low `width` bits.
  const std::uint64_t v = 0x9E3779B97F4A7C15ull & mask64(width);
  EXPECT_EQ(rotr(rotl(v, n, width), n, width), v);
  EXPECT_EQ(rotl(rotr(v, n, width), n, width), v);
  // Rotating by width is the identity.
  EXPECT_EQ(rotl(v, width, width), v);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RotateRoundTrip,
                         ::testing::Combine(::testing::Values(3, 8, 16, 32, 64),
                                            ::testing::Values(0, 1, 2, 5, 7, 15)));

TEST(Bits, Parity) {
  EXPECT_EQ(parity64(0), 0u);
  EXPECT_EQ(parity64(1), 1u);
  EXPECT_EQ(parity64(0b1011), 1u);
  EXPECT_EQ(parity64(0xFFFF), 0u);
}

TEST(Bits, ReverseBits) {
  EXPECT_EQ(reverse_bits(0b001, 3), 0b100u);
  EXPECT_EQ(reverse_bits(0b110, 3), 0b011u);
  EXPECT_EQ(reverse_bits(0x1, 16), 0x8000u);
  // Involution property.
  for (std::uint64_t v : {0x12ull, 0xFEDCull, 0xDEADBEEFull}) {
    EXPECT_EQ(reverse_bits(reverse_bits(v, 32), 32), v);
  }
}

TEST(Bits, Clog2) {
  EXPECT_EQ(clog2(1), 0);
  EXPECT_EQ(clog2(2), 1);
  EXPECT_EQ(clog2(3), 2);
  EXPECT_EQ(clog2(8), 3);   // the paper's 3-bit location space
  EXPECT_EQ(clog2(16), 4);  // generalized N=32
  EXPECT_EQ(clog2(32), 5);  // generalized N=64
  EXPECT_EQ(clog2(9), 4);
}

TEST(Bits, Fits) {
  EXPECT_TRUE(fits(7, 3));
  EXPECT_FALSE(fits(8, 3));
  EXPECT_TRUE(fits(0xFFFF, 16));
  EXPECT_FALSE(fits(0x10000, 16));
}

// ---------------------------------------------------------------------
// Little-endian words and the LSB-first message-bit load.

TEST(LoadLe, PaperPlaintextWordOrder) {
  // The simulation loads "ABCD1234": as a little-endian 32-bit value its
  // low word 0x1234 is the first frame ("the least significant 16 bits are
  // placed in the buffer", §IV).
  const std::array<std::uint8_t, 4> bytes = {0x34, 0x12, 0xCD, 0xAB};
  EXPECT_EQ(load_le(bytes.data(), 2), 0x1234u);
  EXPECT_EQ(load_le(bytes.data() + 2, 2), 0xABCDu);
  EXPECT_EQ(load_le(bytes.data(), 4), 0xABCD1234u);
  static constexpr std::array<std::uint8_t, 2> kWord = {0xD0, 0x48};
  static_assert(load_le(kWord.data(), 2) == 0x48D0);  // the byte loop at compile time
}

TEST(LoadLe, StoreRoundTripsEverySize) {
  // Whole 2/4/8-byte words take the one-access path, the other sizes the
  // byte loop; all must write exactly n bytes, low byte first.
  for (int n = 0; n <= 8; ++n) {
    std::array<std::uint8_t, 10> buf{};
    buf.fill(0xEE);
    store_le(buf.data() + 1, 0x8877665544332211ull, n);
    EXPECT_EQ(buf[0], 0xEE) << n;
    for (int i = 0; i < n; ++i) EXPECT_EQ(buf[1 + i], 0x11 * (i + 1)) << n << " byte " << i;
    for (int i = n; i < 9; ++i) EXPECT_EQ(buf[1 + i], 0xEE) << n << " byte " << i;
    EXPECT_EQ(load_le(buf.data() + 1, n), 0x8877665544332211ull & mask64(8 * n)) << n;
  }
}

TEST(LoadBits, LsbFirstWithinByte) {
  const std::array<std::uint8_t, 1> data = {0b10110010};
  // Bit 0 (the LSB) is the first stream bit: position p lands at bit 0.
  const int expect[8] = {0, 1, 0, 0, 1, 1, 0, 1};
  for (int p = 0; p < 8; ++p) EXPECT_EQ(load_bits(data, p) & 1, expect[p]) << p;
}

TEST(LoadBits, PacksLsbFirst) {
  const std::array<std::uint8_t, 2> data = {0xD0, 0x48};  // word 0x48D0 LE
  EXPECT_EQ(load_bits(data, 0), 0x48D0u);
}

TEST(LoadBits, TailReadsOnlyExistingBytes) {
  // Within the last 8 bytes the missing high bits are zero.
  const std::array<std::uint8_t, 1> data = {0xFF};
  EXPECT_EQ(load_bits(data, 0), 0xFFu);
  EXPECT_EQ(load_bits(data, 5), 0b111u);
  const std::vector<std::uint8_t> nine(9, 0xFF);
  EXPECT_EQ(load_bits(nine, 0), ~std::uint64_t{0});   // a full 8-byte load
  EXPECT_EQ(load_bits(nine, 3), mask64(61));           // >= 57 bits valid
  EXPECT_EQ(load_bits(nine, 8), ~std::uint64_t{0});    // the last 8 bytes
  EXPECT_EQ(load_bits(nine, 15), mask64(57));
  EXPECT_EQ(load_bits(nine, 16), mask64(56));          // the 7-byte tail
}

TEST(LoadBits, MatchesBitByBitAtEveryOffset) {
  // The word load must agree with a single-bit reference at every offset of
  // a buffer, including the tail where fewer than 8 bytes remain.
  Xoshiro256 rng(0xB17);
  std::vector<std::uint8_t> data(40);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.below(256));
  for (std::uint64_t pos = 0; pos < data.size() * 8; ++pos) {
    std::uint64_t expect = 0;
    for (std::uint64_t i = 0; i < 57 && pos + i < data.size() * 8; ++i) {
      const std::uint64_t bit = pos + i;
      expect |= static_cast<std::uint64_t>((data[bit / 8] >> (bit % 8)) & 1) << i;
    }
    ASSERT_EQ(load_bits(data, pos) & mask64(57), expect) << "pos " << pos;
  }
}

}  // namespace
}  // namespace mhhea::util
