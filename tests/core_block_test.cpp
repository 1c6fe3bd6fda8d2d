// Tests of the per-block transform against the paper's worked example
// (Fig. 8) and its algebraic properties, and of the block engine's per-pair
// range tables against that transform, entry by entry.
#include "src/core/block.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/mhhea.hpp"
#include "src/util/rng.hpp"

namespace mhhea::core {
namespace {

// ---------------------------------------------------------------------
// The Fig. 8 worked example, line by line (paper §IV).

TEST(ScrambleRange, Fig8KeyPair03VectorCA06) {
  // K = (0,3), V = 0xCA06: field = V[11..8] = 1010b, KN1 = (1010b ^ 000b)
  // mod 8 = 2, KN2 = 2 + 3 = 5.
  const ScrambledRange r = scramble_range(0xCA06, KeyPair{0, 3});
  EXPECT_EQ(r.kn1, 2);
  EXPECT_EQ(r.kn2, 5);
  EXPECT_EQ(r.width(), 4);
}

TEST(EmbedBits, Fig8ProducesCipherTextCA02) {
  // Message 0x48D0: its first four bits (LSB-first) are 0,0,0,0. With
  // K1 = 0 the XOR pattern is zero, so V[5..2] is replaced by 0000:
  // 0xCA06 -> 0xCA02.
  const KeyPair pair{0, 3};
  const ScrambledRange r = scramble_range(0xCA06, pair);
  const std::uint64_t msg_bits = 0x48D0 & 0xF;  // low 4 bits of the frame
  EXPECT_EQ(embed_bits(0xCA06, r, pair, msg_bits, 4), 0xCA02u);
}

TEST(ExtractBits, Fig8RecoversMessageBits) {
  const KeyPair pair{0, 3};
  const ScrambledRange r = scramble_range(0xCA02, pair);  // receiver's view
  EXPECT_EQ(r.kn1, 2);
  EXPECT_EQ(r.kn2, 5);  // high byte unchanged -> same range
  EXPECT_EQ(extract_bits(0xCA02, r, pair, 4), 0x0u);
}

// ---------------------------------------------------------------------
// Structural properties.

TEST(ScrambleRange, PairOrderDoesNotMatter) {
  for (std::uint64_t v : {0x0000ull, 0xCA06ull, 0xFFFFull, 0x1234ull}) {
    EXPECT_EQ(scramble_range(v, KeyPair{3, 0}), scramble_range(v, KeyPair{0, 3})) << v;
    EXPECT_EQ(scramble_range(v, KeyPair{7, 2}), scramble_range(v, KeyPair{2, 7})) << v;
  }
}

TEST(ScrambleRange, DependsOnlyOnHighHalf) {
  const KeyPair pair{1, 4};
  for (std::uint64_t high = 0; high < 256; high += 37) {
    const std::uint64_t v1 = (high << 8) | 0x00;
    const std::uint64_t v2 = (high << 8) | 0xFF;
    EXPECT_EQ(scramble_range(v1, pair), scramble_range(v2, pair));
  }
}

TEST(ScrambleRange, WrapChangesWidth) {
  // Pair (6,7): d = 1, field = V[15..14]. If KN1 = 7 then KN2 = (7+1) mod 8
  // = 0 and the canonicalised range is [0,7] — width 8, not 2. The wrap is
  // part of the spec (both sides compute it identically).
  const KeyPair pair{6, 7};
  // field ^ 6 == 7  =>  field == 1 (2-bit field at bits 14..15).
  const std::uint64_t v = std::uint64_t{1} << 14;
  const ScrambledRange r = scramble_range(v, pair);
  EXPECT_EQ(r.kn1, 0);
  EXPECT_EQ(r.kn2, 7);
  EXPECT_EQ(r.width(), 8);
}

TEST(ScrambleRange, ZeroSpanPairAlwaysWidthOne) {
  for (int k = 0; k < 8; ++k) {
    const KeyPair pair{static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(k)};
    util::Xoshiro256 rng(99);
    for (int i = 0; i < 50; ++i) {
      const std::uint64_t v = rng.below(0x10000);
      const ScrambledRange r = scramble_range(v, pair);
      EXPECT_EQ(r.width(), 1);
      EXPECT_LT(r.kn2, 8);
    }
  }
}

TEST(ScrambleRange, RangeAlwaysInsideLowHalf) {
  util::Xoshiro256 rng(123);
  for (int i = 0; i < 2000; ++i) {
    const KeyPair pair{static_cast<std::uint8_t>(rng.below(8)),
                       static_cast<std::uint8_t>(rng.below(8))};
    const std::uint64_t v = rng.below(0x10000);
    const ScrambledRange r = scramble_range(v, pair);
    EXPECT_GE(r.kn1, 0);
    EXPECT_LE(r.kn1, r.kn2);
    EXPECT_LT(r.kn2, 8);
  }
}

TEST(KeyScrambleBit, CyclesThroughKeyBits) {
  // K1 = 5 = 101b: pattern bit0,bit1,bit2,bit0,... = 1,0,1,1,0,1,1,0.
  const KeyPair pair{5, 7};
  const int expect[8] = {1, 0, 1, 1, 0, 1, 1, 0};
  for (int t = 0; t < 8; ++t) EXPECT_EQ(key_scramble_bit(pair, t), expect[t]) << t;
}

TEST(EmbedExtract, InverseForRandomInputs) {
  util::Xoshiro256 rng(2024);
  for (int i = 0; i < 5000; ++i) {
    const KeyPair pair{static_cast<std::uint8_t>(rng.below(8)),
                       static_cast<std::uint8_t>(rng.below(8))};
    const std::uint64_t v = rng.below(0x10000);
    const ScrambledRange r = scramble_range(v, pair);
    const int w = static_cast<int>(rng.below(static_cast<std::uint64_t>(r.width()) + 1));
    const std::uint64_t msg = rng.below(std::uint64_t{1} << w);
    const std::uint64_t ct = embed_bits(v, r, pair, msg, w);
    // High byte must be untouched (self-synchronisation invariant).
    EXPECT_EQ(ct >> 8, v >> 8);
    // Receiver recomputes the range from the ciphertext block itself.
    const ScrambledRange r2 = scramble_range(ct, pair);
    EXPECT_EQ(r2, r);
    EXPECT_EQ(extract_bits(ct, r2, pair, w), msg);
  }
}

TEST(EmbedBits, PartialWidthLeavesTailBitsUntouched) {
  // Framed mode can embed w < width(); positions kn1+w .. kn2 keep V's bits.
  // The scramble field of this vector is 000b, so the range is the full
  // unwrapped [0,7] and w is strictly positive.
  const KeyPair pair{0, 7};
  const std::uint64_t v = 0xA0C3;
  const ScrambledRange r = scramble_range(v, pair);
  ASSERT_EQ(r.width(), 8);
  const int w = r.width() - 3;
  const std::uint64_t ct = embed_bits(v, r, pair, 0, w);
  for (int j = r.kn1 + w; j <= r.kn2; ++j) {
    EXPECT_EQ((ct >> j) & 1, (v >> j) & 1) << "tail bit " << j;
  }
}

TEST(EmbedExtract, GeneralizedVectors) {
  const BlockParams p32{32, FramePolicy::continuous};
  const BlockParams p64{64, FramePolicy::continuous};
  util::Xoshiro256 rng(31337);
  for (int i = 0; i < 1000; ++i) {
    for (const auto& params : {p32, p64}) {
      const auto maxv = static_cast<std::uint64_t>(params.max_key_value());
      const KeyPair pair{static_cast<std::uint8_t>(rng.below(maxv + 1)),
                         static_cast<std::uint8_t>(rng.below(maxv + 1))};
      const std::uint64_t v = rng.next() & util::mask64(params.vector_bits);
      const ScrambledRange r = scramble_range(v, pair, params);
      EXPECT_LT(r.kn2, params.half());
      const int w = r.width();
      const std::uint64_t msg = rng.below(std::uint64_t{1} << w);
      const std::uint64_t ct = embed_bits(v, r, pair, msg, w, params);
      EXPECT_EQ(ct >> params.half(), v >> params.half());
      EXPECT_EQ(extract_bits(ct, scramble_range(ct, pair, params), pair, w, params), msg);
    }
  }
}

// ---------------------------------------------------------------------
// The block engine's range tables (mhhea.hpp): every live entry of every
// canonical pair must decode to exactly the range the window defines for
// each block that indexes it.

/// A block whose range-table index is `index`, every other bit drawn from
/// `rng`: at N=16 the index is V's high byte; at N=32/64 it is the
/// loc_bits-bit scramble field, bit j at V[(lo + j) mod H + H].
std::uint64_t block_with_index(std::size_t index, int lo, const BlockParams& params,
                               util::Xoshiro256& rng) {
  const int h = params.half();
  std::uint64_t v = rng.next() & util::mask64(params.vector_bits);
  if (h == 8) return (v & 0xFF) | static_cast<std::uint64_t>(index) << 8;
  for (int j = 0; j < params.loc_bits(); ++j) {
    v = util::set_bit(v, h + (lo + j) % h, util::get_bit(index, j));
  }
  return v;
}

template <class Window>
void check_every_entry(const BlockParams& params, bool scrambled) {
  const int h = params.half();
  const int lb = params.loc_bits();
  const std::size_t n_index = h == 8 ? 256 : std::size_t{1} << lb;
  util::Xoshiro256 rng(0x7AB1E + static_cast<std::uint64_t>(params.vector_bits));
  for (int lo = 0; lo < h; ++lo) {
    for (int hi = lo; hi < h; ++hi) {
      const KeyPair pair{static_cast<std::uint8_t>(lo), static_cast<std::uint8_t>(hi)};
      const detail::PairTables tables =
          detail::PairTables::build<Window>(Key({pair}, params), params);
      ASSERT_EQ(tables.size(), 1u);
      const detail::PairCtx& pc = *tables.begin();
      ASSERT_EQ(pc.lo, lo);
      ASSERT_EQ(pc.pattern, scrambled ? key_pattern(pair, params) : 0u);
      for (std::size_t index = 0; index < n_index; ++index) {
        for (int trial = 0; trial < 16; ++trial) {
          const std::uint64_t v = block_with_index(index, lo, params, rng);
          ASSERT_EQ(detail::range_index(v, lo, h, lb), index) << std::hex << v;
          const ScrambledRange want = scrambled ? scramble_range(v, pair, params)
                                                : FixedWindow::range(v, pair, params);
          const std::uint16_t e = pc.range[index];
          ASSERT_EQ(e & 0xFF, want.kn1) << "pair " << lo << "-" << hi << " index " << index;
          ASSERT_EQ(e >> 8, want.width()) << "pair " << lo << "-" << hi << " index " << index;
        }
      }
    }
  }
}

class RangeTable : public ::testing::TestWithParam<BlockParams> {};

TEST_P(RangeTable, EveryScrambledEntryMatchesScrambleRange) {
  check_every_entry<ScrambledWindow>(GetParam(), true);
}

TEST_P(RangeTable, EveryFixedEntryMatchesTheKeyRange) {
  check_every_entry<FixedWindow>(GetParam(), false);
}

/// The five block geometries of the reference-model sweep.
INSTANTIATE_TEST_SUITE_P(Params, RangeTable,
                         ::testing::Values(BlockParams::paper(), BlockParams::hardware(),
                                           BlockParams{32, FramePolicy::continuous},
                                           BlockParams{32, FramePolicy::framed},
                                           BlockParams{64, FramePolicy::framed}),
                         [](const ::testing::TestParamInfo<BlockParams>& info) {
                           std::string name = "v";
                           name += std::to_string(info.param.vector_bits);
                           name += info.param.policy == FramePolicy::framed ? "_framed"
                                                                            : "_continuous";
                           return name;
                         });

}  // namespace
}  // namespace mhhea::core
