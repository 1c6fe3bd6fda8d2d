// LFSR library tests: every table polynomial is *proved* primitive via the
// GF(2) order test, and for tractable degrees the maximal period is also
// verified empirically by stepping the register — so the paper's "primitive
// feedback polynomial ensures a maximal-length sequence" claim is grounded.
#include "src/lfsr/lfsr.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/backend/backend.hpp"
#include "src/crypto/yaea.hpp"
#include "src/lfsr/polynomials.hpp"

namespace mhhea::lfsr {
namespace {

// Declared first, so a run of the whole binary reaches it before any other
// case has built a degree's tables. Four threads construct registers of
// every degree and a Geffe keystream at the same moment, racing the
// once-per-process table builds (the TSan job runs this binary), and each
// thread's bulk pulls must equal the serial reference.
TEST(LfsrTables, ColdStartOnFourThreadsMatchesSerial) {
  constexpr std::size_t kThreads = 4;
  constexpr int kDegrees = 31;              // 2..32
  constexpr std::uint64_t kSeed = 0x5EED;  // non-zero in the low bits of every degree
  // Whole rows of lanes plus a ragged tail, for both kernels.
  constexpr std::size_t kBlocks = 549;
  constexpr std::size_t kBytes = 2061;
  struct Pulled {
    std::vector<std::vector<std::uint64_t>> blocks;  // [degree - 2][block]
    std::vector<std::uint8_t> bytes;
  };
  std::vector<Pulled> got(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (Pulled& p : got) {
    threads.emplace_back([&] {
      p.blocks.assign(kDegrees, std::vector<std::uint64_t>(kBlocks));
      p.bytes.resize(kBytes);
      std::vector<Lfsr> regs;
      regs.reserve(kDegrees);
      start.arrive_and_wait();
      for (int d = 2; d <= 32; ++d) regs.emplace_back(d, kSeed);
      crypto::GeffeKeystream ks(0x1ACE, 0x2BEEF, 0x3CAFE);
      for (std::size_t k = 0; k < regs.size(); ++k) regs[k].next_blocks(p.blocks[k]);
      ks.next_bytes(p.bytes);
    });
  }
  for (std::thread& th : threads) th.join();
  for (int d = 2; d <= 32; ++d) {
    Lfsr serial(d, kSeed);
    for (std::size_t i = 0; i < kBlocks; ++i) {
      const std::uint64_t want = serial.next_block();
      for (std::size_t t = 0; t < kThreads; ++t) {
        ASSERT_EQ(got[t].blocks[static_cast<std::size_t>(d - 2)][i], want)
            << "degree=" << d << " block=" << i << " thread=" << t;
      }
    }
  }
  crypto::GeffeKeystream serial(0x1ACE, 0x2BEEF, 0x3CAFE);
  for (std::size_t i = 0; i < kBytes; ++i) {
    const std::uint8_t want = serial.next_byte();
    for (std::size_t t = 0; t < kThreads; ++t) {
      ASSERT_EQ(got[t].bytes[i], want) << "byte=" << i << " thread=" << t;
    }
  }
}

TEST(Gf2, MulKnownProducts) {
  // (x+1)(x+1) = x^2+1 over GF(2).
  EXPECT_EQ(gf2_mul(0b11, 0b11), 0b101u);
  // (x^2+x)(x+1) = x^3 + x.
  EXPECT_EQ(gf2_mul(0b110, 0b11), 0b1010u);
  EXPECT_EQ(gf2_mul(0, 0b1011), 0u);
  EXPECT_EQ(gf2_mul(1, 0b1011), 0b1011u);
}

TEST(Gf2, ModReduces) {
  const Polynomial m{3, 0b1011};  // x^3 + x + 1
  EXPECT_EQ(gf2_mod(0b1000, m), 0b011u);  // x^3 = x + 1
  EXPECT_EQ(gf2_mod(0b0101, m), 0b101u);  // already reduced
  EXPECT_EQ(gf2_mod(0, m), 0u);
}

TEST(Gf2, PowXCyclesWithOrder) {
  const Polynomial m{3, 0b1011};  // primitive, ord(x) = 7
  EXPECT_EQ(gf2_pow_x(0, m), 1u);
  EXPECT_EQ(gf2_pow_x(1, m), 0b10u);
  EXPECT_EQ(gf2_pow_x(7, m), 1u);
  EXPECT_NE(gf2_pow_x(3, m), 1u);
  EXPECT_EQ(gf2_pow_x(8, m), 0b10u);  // x^8 = x^(7+1) = x
}

TEST(Primitivity, RejectsReducible) {
  // x^4 + x^2 + 1 = (x^2+x+1)^2 — reducible.
  EXPECT_FALSE(is_primitive(Polynomial{4, 0b10101}));
}

TEST(Primitivity, RejectsIrreducibleButNotPrimitive) {
  // x^4+x^3+x^2+x+1 is irreducible but ord(x) = 5 != 15.
  EXPECT_FALSE(is_primitive(Polynomial{4, 0b11111}));
}

TEST(Primitivity, RejectsMissingConstantTerm) {
  EXPECT_FALSE(is_primitive(Polynomial{4, 0b11000}));  // x^4 + x^3
}

class PolynomialTable : public ::testing::TestWithParam<int> {};

TEST_P(PolynomialTable, EveryEntryIsPrimitive) {
  const int degree = GetParam();
  const Polynomial p = primitive_polynomial(degree);
  EXPECT_EQ(p.degree, degree);
  EXPECT_TRUE(is_primitive(p)) << "table entry for degree " << degree
                               << " is not primitive (mask 0x" << std::hex << p.mask << ")";
}

INSTANTIATE_TEST_SUITE_P(AllDegrees, PolynomialTable, ::testing::Range(2, 33));

TEST(PolynomialTable, RejectsOutOfRangeDegrees) {
  EXPECT_THROW((void)primitive_polynomial(1), std::out_of_range);
  EXPECT_THROW((void)primitive_polynomial(33), std::out_of_range);
  EXPECT_THROW((void)prime_factors_2d_minus_1(0), std::out_of_range);
}

TEST(PolynomialTable, FactorsMultiplyBack) {
  // Each factor must divide 2^d - 1 (distinct primes; multiplicities vary).
  for (int d = 2; d <= 32; ++d) {
    const std::uint64_t n = (std::uint64_t{1} << d) - 1;
    for (std::uint64_t f : prime_factors_2d_minus_1(d)) {
      EXPECT_EQ(n % f, 0u) << "degree " << d << " factor " << f;
    }
  }
}

TEST(PolynomialFromExponents, BuildsMask) {
  const Polynomial p = polynomial_from_exponents(std::vector<int>{16, 15, 13, 4, 0});
  EXPECT_EQ(p.degree, 16);
  EXPECT_EQ(p.mask, (1u << 16) | (1u << 15) | (1u << 13) | (1u << 4) | 1u);
  EXPECT_THROW((void)polynomial_from_exponents(std::vector<int>{40}), std::out_of_range);
}

// The name keeps its BadPoly spelling so the printed test name stays stable:
// a register is built from a degree, which leaves no polynomial to reject.
TEST(Lfsr, RejectsZeroSeedAndBadPoly) {
  EXPECT_THROW(Lfsr(16, 0), std::invalid_argument);
  EXPECT_THROW(Lfsr(16, 0x10000), std::invalid_argument);
}

struct PeriodCase {
  int degree;
  std::uint32_t seed;
};

class LfsrPeriod : public ::testing::TestWithParam<PeriodCase> {};

TEST_P(LfsrPeriod, FullPeriodFromAnySmallSeed) {
  const auto [degree, seed] = GetParam();
  Lfsr l(degree, seed);
  const std::uint64_t start = l.state();
  std::uint64_t period = 0;
  do {
    (void)l.step();
    ++period;
  } while (l.state() != start && period <= l.max_period() + 1);
  EXPECT_EQ(period, l.max_period());
}

// The suite and case names keep their `BothForms`/`Fib` spelling from when a
// Galois form existed, so the printed test names stay stable.
INSTANTIATE_TEST_SUITE_P(
    SmallDegreesBothForms, LfsrPeriod,
    ::testing::Values(PeriodCase{2, 1}, PeriodCase{3, 5}, PeriodCase{4, 9}, PeriodCase{5, 0x13},
                      PeriodCase{8, 0xA5}, PeriodCase{12, 0x5EE}, PeriodCase{16, 0xACE1},
                      PeriodCase{17, 1}, PeriodCase{19, 0x2BEEF}, PeriodCase{20, 0xFACED}),
    [](const auto& info) { return std::string("deg") + std::to_string(info.param.degree) + "Fib"; });

TEST(Lfsr, VisitsEveryNonZeroState) {
  Lfsr l(8, 0xAB);
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < l.max_period(); ++i) {
    seen.insert(l.state());
    (void)l.step();
  }
  EXPECT_EQ(seen.size(), 255u);
  EXPECT_EQ(seen.count(0), 0u);  // zero state is unreachable
}

TEST(Lfsr, NextBlockAdvancesDegreeSteps) {
  Lfsr a(16, 0xACE1);
  Lfsr b(16, 0xACE1);
  const std::uint64_t block = a.next_block();
  b.advance(16);
  EXPECT_EQ(block, b.state());
  EXPECT_LE(block, 0xFFFFu);
  EXPECT_NE(block, 0u);
}

// Lfsr::power_tables(n) is the n-step transition map M^n as per-byte XOR
// tables, built by square-and-multiply on the probed one-step matrix. The
// row strides of next_blocks and the Geffe kernel ride on it, so the map
// must agree with plain stepping.
constexpr int kPowerDegrees[] = {2, 7, 16, 17, 23, 32};

std::uint64_t apply_power(Lfsr& l, std::uint64_t steps, std::uint64_t state) {
  return l.power_tables(steps).apply(static_cast<std::uint32_t>(state));
}

TEST(LfsrJump, MatchesAdvanceForBothForms) {
  for (const int degree : kPowerDegrees) {
    for (const std::uint64_t n : {0ull, 1ull, 2ull, 15ull, 16ull, 100ull, 12345ull}) {
      // 0x5EED is non-zero in the low bits of every degree in the sweep.
      Lfsr l(degree, 0x5EED);
      const std::uint64_t mapped = apply_power(l, n, l.state());
      l.advance(n);
      EXPECT_EQ(mapped, l.state()) << "degree=" << degree << " n=" << n;
    }
  }
}

TEST(LfsrJump, FullPeriodIsIdentity) {
  // The register-period power (astronomically expensive to step at degree
  // 32) must map every basis state to itself — the O(log n) construction is
  // the point.
  for (const int degree : kPowerDegrees) {
    Lfsr l(degree, 0x5EED);
    const backend::LinearMapTables period = l.power_tables(l.max_period());
    const backend::LinearMapTables few = l.power_tables(5);
    const backend::LinearMapTables period_plus_few = l.power_tables(l.max_period() + 5);
    for (int b = 0; b < degree; ++b) {
      const std::uint32_t basis = std::uint32_t{1} << b;
      EXPECT_EQ(period.apply(basis), basis) << "degree=" << degree << " bit=" << b;
      // One full period plus a few: equivalent to the few alone.
      EXPECT_EQ(period_plus_few.apply(basis), few.apply(basis))
          << "degree=" << degree << " bit=" << b;
    }
  }
}

TEST(LfsrJump, ComposesWithNextBlock) {
  // Mapping by k * degree steps == discarding k next_block() calls: the
  // contract the row stride of next_blocks builds on.
  Lfsr jumped(16, 0xACE1);
  Lfsr stepped(16, 0xACE1);
  for (int i = 0; i < 37; ++i) (void)stepped.next_block();
  jumped.set_state(apply_power(jumped, 37 * 16, jumped.state()));
  EXPECT_EQ(jumped.state(), stepped.state());
  EXPECT_EQ(jumped.next_block(), stepped.next_block());
}

TEST(Lfsr, BlocksLookBalanced) {
  // Sanity check of the hiding-vector source: over many blocks, ones and
  // zeros should be near 50/50.
  Lfsr l(16, 0xBEEF);
  int ones = 0;
  const int kBlocks = 4096;
  for (int i = 0; i < kBlocks; ++i) {
    std::uint64_t v = l.next_block();
    for (int j = 0; j < 16; ++j) ones += (v >> j) & 1;
  }
  const double frac = static_cast<double>(ones) / (16.0 * kBlocks);
  EXPECT_NEAR(frac, 0.5, 0.01);
}

}  // namespace
}  // namespace mhhea::lfsr
