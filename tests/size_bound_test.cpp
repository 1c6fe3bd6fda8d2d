// The closed-form ciphertext bound, BlockEncryptor::max_cipher_bytes, is the
// one sizing rule: every allocating path sizes its buffer from it, writes
// with encrypt_into and shrinks to the bytes written. These suites check
// that the bound never undershoots — a bound-sized buffer always holds the
// ciphertext — under both window policies, every reference geometry, and
// adversarial keys and covers; that a cover pinning every block at its
// pair's minimum width stays within L blocks of the bound per capped
// region; and that MhheaCipher::max_ciphertext_size keeps its published
// values.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/core/cover.hpp"
#include "src/core/key.hpp"
#include "src/core/mhhea.hpp"
#include "src/core/params.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/util/bits.hpp"
#include "src/util/rng.hpp"

namespace mhhea::core {
namespace {

/// Every length 0–300 bytes, plus 16 KiB.
std::vector<std::size_t> sweep_lengths() {
  std::vector<std::size_t> lens;
  for (std::size_t n = 0; n <= 300; ++n) lens.push_back(n);
  lens.push_back(16384);
  return lens;
}

/// The keys most likely to break a per-pair minimum-width bound.
std::vector<std::pair<std::string, Key>> adversarial_keys(const BlockParams& params,
                                                          util::Xoshiro256& rng) {
  const int h = params.half();
  // d = 0 everywhere: one bit per block, the smallest width there is.
  std::vector<KeyPair> zero_span;
  for (int i = 0; i < Key::kMaxPairs; ++i) {
    const auto v = static_cast<std::uint8_t>(i % h);
    zero_span.push_back({v, v});
  }
  // d > H/2: a wrapped scrambled range is only H-d+1 wide, narrower than
  // the d+1 of the unwrapped one.
  const auto top = static_cast<std::uint8_t>(h - 1);
  const std::vector<KeyPair> wrapping = {
      {0, top}, {1, top}, {0, static_cast<std::uint8_t>(h - 2)}, {2, top}};
  std::vector<std::pair<std::string, Key>> keys;
  keys.emplace_back("random8", Key::random(rng, 8, params));
  keys.emplace_back("all_d0", Key(zero_span, params));
  keys.emplace_back("wrapping", Key(wrapping, params));
  keys.emplace_back("single_pair", Key({{0, top}}, params));
  // Key::kMaxPairs = 16 is the largest L a key can have; with 16-bit
  // vectors it equals vector_bits, so one frame spans fewer blocks than L.
  keys.emplace_back("max_pairs", Key::random(rng, Key::kMaxPairs, params));
  return keys;
}

/// A cover whose block i makes pair (i mod L) embed exactly its minimum
/// uncapped width: the worst case the bound is derived from. Finding such a
/// block also shows that Window::min_width is reached, not just a floor.
template <class Window>
std::vector<std::uint64_t> min_width_cover(const Key& key, const BlockParams& params,
                                           std::size_t n_blocks, util::Xoshiro256& rng) {
  std::vector<std::uint64_t> per_pair;
  for (const KeyPair& p : key.pairs()) {
    // KN1 is uniform over [0, H), so a block that wraps (or does not) turns
    // up within a few dozen draws; the cap only stops a broken rule.
    std::uint64_t v = 0;
    int draws = 0;
    do {
      v = rng.next() & util::mask64(params.vector_bits);
    } while (Window::range(v, p, params).width() != Window::min_width(p, params) &&
             ++draws < 4096);
    EXPECT_EQ(Window::range(v, p, params).width(), Window::min_width(p, params))
        << "no cover block reaches the minimum width of pair " << int{p.lo()} << "-"
        << int{p.hi()};
    per_pair.push_back(v);
  }
  std::vector<std::uint64_t> blocks(n_blocks);
  for (std::size_t i = 0; i < n_blocks; ++i) blocks[i] = per_pair[i % per_pair.size()];
  return blocks;
}

template <class Window>
void check_bound(const Key& key, const BlockParams& params, const std::string& what,
                 util::Xoshiro256& rng) {
  const auto lens = sweep_lengths();
  std::vector<std::uint8_t> msg(lens.back());
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  const auto bb = static_cast<std::uint64_t>(params.block_bytes());
  const auto L = static_cast<std::uint64_t>(key.size());
  const auto vb = static_cast<std::uint64_t>(params.vector_bits);
  const bool framed = params.policy == FramePolicy::framed;

  BlockEncryptor<Window> lfsr(key, make_lfsr_cover(params.vector_bits, 0xACE1), params);
  const std::uint64_t most = lfsr.max_cipher_bytes(lens.back() * 8);
  BlockEncryptor<Window> worst(
      key,
      std::make_unique<BufferCover>(min_width_cover<Window>(key, params, most / bb, rng)),
      params);
  for (const std::size_t len : lens) {
    const std::uint64_t bits = static_cast<std::uint64_t>(len) * 8;
    const std::uint64_t bound = lfsr.max_cipher_bytes(bits);
    ASSERT_EQ(worst.max_cipher_bytes(bits), bound) << what;
    const auto span = std::span<const std::uint8_t>(msg).first(len);
    std::vector<std::uint8_t> out(bound);
    std::size_t got = 0;
    ASSERT_NO_THROW(got = lfsr.encrypt_into(span, out)) << what << " lfsr len " << len;
    ASSERT_NO_THROW(got = worst.encrypt_into(span, out)) << what << " min-width len " << len;
    // Each capped region (the message end, or each frame) leaves at most L
    // blocks of slack when every block sits at its minimum width.
    if (!framed || bits % vb == 0) {
      const std::uint64_t regions = framed ? bits / vb : (bits > 0 ? 1 : 0);
      EXPECT_LE(bound - got, regions * L * bb) << what << " min-width len " << len;
    }
  }
}

const auto kGeometries =
    ::testing::Values(BlockParams::paper(), BlockParams::hardware(),
                      BlockParams{32, FramePolicy::continuous},
                      BlockParams{32, FramePolicy::framed},
                      BlockParams{64, FramePolicy::framed});

std::string geometry_name(const ::testing::TestParamInfo<BlockParams>& info) {
  std::string name = "v";
  name += std::to_string(info.param.vector_bits);
  name += info.param.policy == FramePolicy::framed ? "_framed" : "_continuous";
  return name;
}

class SizeBound : public ::testing::TestWithParam<BlockParams> {};

TEST_P(SizeBound, BoundHoldsForBothWindowsAndAdversarialKeys) {
  const BlockParams params = GetParam();
  util::Xoshiro256 rng(0xB0B0 + static_cast<std::uint64_t>(params.vector_bits));
  for (const auto& [name, key] : adversarial_keys(params, rng)) {
    check_bound<ScrambledWindow>(key, params, "scrambled " + name, rng);
    check_bound<FixedWindow>(key, params, "fixed " + name, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(Params, SizeBound, kGeometries, geometry_name);

TEST(SizeBound, MinWidthRuleOfEachWindow) {
  const BlockParams p = BlockParams::paper();  // H = 8
  EXPECT_EQ(ScrambledWindow::min_width({0, 0}, p), 1);
  EXPECT_EQ(ScrambledWindow::min_width({0, 3}, p), 4);  // d+1 = 4 <= H-d+1 = 6
  EXPECT_EQ(ScrambledWindow::min_width({0, 7}, p), 2);  // H-d+1 = 2 < d+1 = 8
  EXPECT_EQ(FixedWindow::min_width({0, 0}, p), 1);
  EXPECT_EQ(FixedWindow::min_width({0, 7}, p), 8);
}

}  // namespace
}  // namespace mhhea::core

namespace mhhea::crypto {
namespace {

// max_ciphertext_size is the engine bound plus the container overhead.
// Callers size arenas and slots from it, so its values are pinned: a change
// here changes every caller's memory footprint.
TEST(SizeBound, MhheaMaxCiphertextSizeIsUnchanged) {
  const std::size_t lens[] = {0, 1, 2, 15, 16, 17, 95, 96, 255, 256, 1000, 4096, 16384};
  const std::vector<std::vector<std::size_t>> want = {
      // paper(): raw, sealed, sealed_v2
      {0, 12, 12, 72, 84, 84, 444, 444, 1176, 1176, 4572, 18732, 74904},
      {16, 28, 28, 88, 100, 100, 460, 460, 1192, 1192, 4588, 18748, 74920},
      {40, 52, 52, 112, 124, 124, 484, 484, 1216, 1216, 4612, 18772, 74944},
      // hardware(): raw, sealed, sealed_v2
      {0, 12, 12, 96, 96, 108, 576, 576, 1536, 1536, 6000, 24576, 98304},
      {16, 28, 28, 112, 112, 124, 592, 592, 1552, 1552, 6016, 24592, 98320},
      {40, 52, 52, 136, 136, 148, 616, 616, 1576, 1576, 6040, 24616, 98344},
  };
  std::size_t row = 0;
  for (const auto params : {core::BlockParams::paper(), core::BlockParams::hardware()}) {
    for (const auto framing : {MhheaCipher::Framing::raw, MhheaCipher::Framing::sealed,
                               MhheaCipher::Framing::sealed_v2}) {
      const MhheaCipher cipher(core::Key::parse("1-6,2-5,3-7,0-4,5-5,7-0", params), 0xACE1,
                               params, framing);
      for (std::size_t i = 0; i < std::size(lens); ++i) {
        EXPECT_EQ(cipher.max_ciphertext_size(lens[i]), want[row][i])
            << "row " << row << " len " << lens[i];
      }
      ++row;
    }
  }
  // Wider vectors: 32-bit continuous and 64-bit framed.
  const std::size_t wide_lens[] = {0, 1, 17, 96, 300, 4096, 16384};
  const core::BlockParams p32{32, core::FramePolicy::continuous};
  const core::BlockParams p64{64, core::FramePolicy::framed};
  const std::vector<std::pair<core::BlockParams, std::vector<std::size_t>>> wide = {
      {p32, {0, 32, 128, 608, 1888, 25600, 102304}},
      {p64, {0, 128, 384, 1536, 4864, 65536, 262144}},
  };
  for (const auto& [params, sizes] : wide) {
    const MhheaCipher cipher(core::Key::parse("1-6,2-5,3-7,0-4,5-5,7-0,0-12,9-15", params),
                             0xACE1, params);
    for (std::size_t i = 0; i < std::size(wide_lens); ++i) {
      EXPECT_EQ(cipher.max_ciphertext_size(wide_lens[i]), sizes[i])
          << "v" << params.vector_bits << " len " << wide_lens[i];
    }
  }
}

}  // namespace
}  // namespace mhhea::crypto
