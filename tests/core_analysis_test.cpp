// Tests of the analytical rate model against closed forms and Monte Carlo.
//
// Closed form used below (derived in DESIGN.md §6 and verified here): for a
// pair with span d on the paper's geometry, averaging over a uniform
// scramble field, E[width | d] = (8 + 16d - 2d^2) / 8, and averaging over
// uniformly random pairs gives E[width] = 29/8 = 3.625.
#include "src/core/analysis.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "src/core/block.hpp"
#include "src/core/cover.hpp"
#include "src/core/mhhea.hpp"
#include "src/util/rng.hpp"

namespace mhhea::core {
namespace {

TEST(Analysis, ClosedFormPerSpan) {
  for (int d = 0; d <= 7; ++d) {
    const KeyPair pair{0, static_cast<std::uint8_t>(d)};
    const double expect = (8.0 + 16.0 * d - 2.0 * d * d) / 8.0;
    EXPECT_NEAR(expected_bits_per_block(pair), expect, 1e-12) << "d=" << d;
  }
}

TEST(Analysis, TranslatedPairsHaveSameRate) {
  // E[width] depends only on the span d, not on the absolute position.
  for (int d = 0; d <= 3; ++d) {
    const double base =
        expected_bits_per_block(KeyPair{0, static_cast<std::uint8_t>(d)});
    for (int lo = 1; lo + d <= 7; ++lo) {
      const KeyPair p{static_cast<std::uint8_t>(lo), static_cast<std::uint8_t>(lo + d)};
      EXPECT_NEAR(expected_bits_per_block(p), base, 1e-12);
    }
  }
}

TEST(Analysis, RandomKeyAverageIs3_625) {
  EXPECT_NEAR(expected_bits_per_block_random_key(), 3.625, 1e-12);
}

TEST(Analysis, KeyAverageIsMeanOfPairs) {
  const Key key = Key::parse("0-3,2-5,0-7");
  const double expect = (expected_bits_per_block(KeyPair{0, 3}) +
                         expected_bits_per_block(KeyPair{2, 5}) +
                         expected_bits_per_block(KeyPair{0, 7})) /
                        3.0;
  EXPECT_NEAR(expected_bits_per_block(key), expect, 1e-12);
}

TEST(Analysis, ExpansionIsVectorOverRate) {
  const Key key = Key::parse("0-7");
  EXPECT_NEAR(expected_expansion(key), 16.0 / expected_bits_per_block(key), 1e-12);
}

TEST(Analysis, LocationProbabilitySumsToRate) {
  // Sum over locations of replacement probability = expected replaced bits.
  for (const char* spec : {"0-3", "2-5", "0-7", "6-7", "4-4"}) {
    const Key key = Key::parse(spec);
    const auto prob = location_replacement_probability(key);
    const double sum = std::accumulate(prob.begin(), prob.end(), 0.0);
    EXPECT_NEAR(sum, expected_bits_per_block(key), 1e-12) << spec;
  }
}

TEST(Analysis, FullSpanPairSpreadsOverAllLocations) {
  const auto prob = location_replacement_probability(KeyPair{0, 7});
  for (double p : prob) EXPECT_GT(p, 0.0);
}

TEST(Analysis, MonteCarloAgreesWithModel) {
  // Encrypt a long random message and compare the realised bits/block with
  // the analytical expectation (LFSR cover approximates the uniform field).
  util::Xoshiro256 rng(77);
  const Key key = Key::parse("0-3,2-5,1-6,0-7");
  std::vector<std::uint8_t> msg(20000);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));

  const auto ct = encrypt(msg, key, 0xACE1);
  const double measured = static_cast<double>(msg.size() * 8) /
                          static_cast<double>(ct.size() / 2);
  EXPECT_NEAR(measured, expected_bits_per_block(key), 0.05);
}

TEST(Analysis, GeneralizedGeometryRates) {
  // For N=32 the same closed form holds with h=16:
  // E[width | d] = ((16-d)(d+1) + d(17-d)) / 16.
  const BlockParams p32{32, FramePolicy::continuous};
  for (int d : {0, 5, 15}) {
    const KeyPair pair{0, static_cast<std::uint8_t>(d)};
    const double h = 16.0;
    const double expect = ((h - d) * (d + 1) + d * (h + 1 - d)) / h;
    EXPECT_NEAR(expected_bits_per_block(pair, p32), expect, 1e-12) << d;
  }
}

}  // namespace
}  // namespace mhhea::core
