// Unit tests for src/util/bits.hpp. The rotation cases include the paper's
// Figure 3 / Figure 8 values, which every higher layer depends on.
#include "src/util/bits.hpp"

#include <gtest/gtest.h>

#include <tuple>

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

}  // namespace
}  // namespace mhhea::util
