// Property tests of the engine layer: every registered cipher round-trips
// through the uniform Cipher interface across randomized message lengths,
// instances are deterministic per seed, and independent instances driven on
// concurrent threads produce the bytes of a sequential loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/frame.hpp"
#include "src/core/mhhea.hpp"
#include "src/crypto/cipher.hpp"
#include "src/crypto/mhhea_cipher.hpp"
#include "src/crypto/registry.hpp"
#include "src/util/rng.hpp"

namespace mhhea::crypto {
namespace {

std::vector<std::uint8_t> random_message(util::Xoshiro256& rng, std::size_t n) {
  std::vector<std::uint8_t> msg(n);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.below(256));
  return msg;
}

/// Message lengths for the property sweep: all the boundary sizes plus
/// random lengths up to 4096 bytes.
std::vector<std::size_t> sweep_lengths(util::Xoshiro256& rng) {
  std::vector<std::size_t> lens = {0, 1, 2, 3, 15, 16, 17, 255, 256};
  for (int i = 0; i < 12; ++i) lens.push_back(static_cast<std::size_t>(rng.below(4097)));
  return lens;
}

TEST(CipherRegistry, BuiltinHasTheTableOneCiphers) {
  const auto& reg = CipherRegistry::builtin();
  EXPECT_GE(reg.size(), 4u);
  for (const char* name : {"MHHEA", "MHHEA-sealed", "HHEA", "YAEA-S"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  const auto names = reg.names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(CipherRegistry, UnknownNameThrows) {
  EXPECT_THROW((void)CipherRegistry::builtin().make("DES", 1), std::invalid_argument);
}

TEST(CipherRegistry, RegistrationValidates) {
  CipherRegistry reg;
  const auto factory = [](std::uint64_t seed) {
    return std::unique_ptr<Cipher>(CipherRegistry::builtin().make("MHHEA", seed));
  };
  EXPECT_THROW(reg.register_cipher("", factory), std::invalid_argument);
  EXPECT_THROW(reg.register_cipher("x", nullptr), std::invalid_argument);
  reg.register_cipher("x", factory);
  EXPECT_THROW(reg.register_cipher("x", factory), std::invalid_argument);
  EXPECT_EQ(reg.size(), 1u);
}

class RegisteredCipher : public ::testing::TestWithParam<std::string> {};

TEST_P(RegisteredCipher, RandomizedRoundTrip) {
  util::Xoshiro256 rng(0xC0FFEE);
  for (std::uint64_t seed : {1ull, 0xACE1ull, 0xFEEDFACEull}) {
    const auto cipher = CipherRegistry::builtin().make(GetParam(), seed);
    EXPECT_FALSE(cipher->name().empty());
    EXPECT_GE(cipher->expansion(), 1.0);
    for (std::size_t len : sweep_lengths(rng)) {
      const auto msg = random_message(rng, len);
      const auto ct = cipher->encrypt(msg);
      // The interface promise: ciphertext grows with the declared expansion
      // class (>= 2x for hiding ciphers, == 1x for stream ciphers).
      if (cipher->expansion() >= 2.0) {
        EXPECT_GE(ct.size(), msg.size() * 2) << len;
      } else {
        EXPECT_EQ(ct.size(), msg.size()) << len;
      }
      EXPECT_EQ(cipher->decrypt(ct, msg.size()), msg)
          << GetParam() << " seed=" << seed << " len=" << len;
    }
  }
}

TEST_P(RegisteredCipher, SameSeedSameCiphertext) {
  util::Xoshiro256 rng(7);
  const auto msg = random_message(rng, 257);
  const auto a = CipherRegistry::builtin().make(GetParam(), 42);
  const auto b = CipherRegistry::builtin().make(GetParam(), 42);
  const auto c = CipherRegistry::builtin().make(GetParam(), 43);
  EXPECT_EQ(a->encrypt(msg), b->encrypt(msg));
  EXPECT_NE(a->encrypt(msg), c->encrypt(msg));
  // Repeated calls on one instance are independent and deterministic.
  EXPECT_EQ(a->encrypt(msg), a->encrypt(msg));
}

TEST_P(RegisteredCipher, ConcurrentInstancesMatchSequential) {
  // Every thread builds its own instance (instances are not thread-safe)
  // and round-trips the same message set; the TSan job checks that nothing
  // they share underneath — registry, backend dispatch, polynomial tables —
  // races. The threads run before the sequential reference, so when this
  // test runs alone they also race on state built lazily on first use.
  util::Xoshiro256 rng(0xBA7C4);
  std::vector<std::vector<std::uint8_t>> msgs;
  for (int i = 0; i < 64; ++i) msgs.push_back(random_message(rng, rng.below(513)));
  msgs.push_back(random_message(rng, 4096));
  msgs.push_back({});  // empty message rides along

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<std::uint8_t>>> cts(kThreads);
  std::vector<std::vector<std::vector<std::uint8_t>>> pts(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto cipher = CipherRegistry::builtin().make(GetParam(), 0xACE1);
      for (const auto& m : msgs) cts[t].push_back(cipher->encrypt(m));
      for (std::size_t i = 0; i < msgs.size(); ++i) {
        pts[t].push_back(cipher->decrypt(cts[t][i], msgs[i].size()));
      }
    });
  }
  for (auto& th : threads) th.join();

  const auto sequential_cipher = CipherRegistry::builtin().make(GetParam(), 0xACE1);
  std::vector<std::vector<std::uint8_t>> expected;
  for (const auto& m : msgs) expected.push_back(sequential_cipher->encrypt(m));
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(cts[t], expected) << "thread " << t;
    EXPECT_EQ(pts[t], msgs) << "thread " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(AllRegistered, RegisteredCipher,
                         ::testing::ValuesIn(CipherRegistry::builtin().names()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

TEST(MhheaCipherAdapter, MatchesCoreOneShot) {
  // The adapter reuses one resettable core, but its bytes must equal the
  // one-shot core helpers — on every call, not just the first.
  util::Xoshiro256 rng(11);
  const auto params = core::BlockParams::paper();
  const core::Key key = core::Key::random(rng, 8, params);
  const auto msg = random_message(rng, 333);
  MhheaCipher cipher(key, 0xACE1, params);
  EXPECT_EQ(cipher.encrypt(msg), core::encrypt(msg, key, 0xACE1, params));
  EXPECT_EQ(cipher.encrypt(msg), core::encrypt(msg, key, 0xACE1, params));
  const auto other = random_message(rng, 100);
  EXPECT_EQ(cipher.encrypt(other), core::encrypt(other, key, 0xACE1, params));
  EXPECT_EQ(cipher.name(), "MHHEA");
  EXPECT_GE(cipher.expansion(), 2.0);
}

TEST(MhheaCipherAdapter, SealedFramingMatchesCoreSealOpen) {
  // The sealed adapter is the core::seal/open container through the Cipher
  // interface — byte-identical framed output.
  util::Xoshiro256 rng(12);
  const auto params = core::BlockParams::hardware();
  const core::Key key = core::Key::random(rng, 8, params);
  const auto msg = random_message(rng, 222);
  MhheaCipher cipher(key, 0xACE1, params, MhheaCipher::Framing::sealed);
  EXPECT_EQ(cipher.name(), "MHHEA-sealed");
  const auto ct = cipher.encrypt(msg);
  EXPECT_EQ(ct, core::seal(msg, key, 0xACE1, params));
  EXPECT_EQ(core::open(ct, key), msg);
  EXPECT_EQ(cipher.decrypt(ct, msg.size()), msg);
}

TEST(MhheaCipherAdapter, SealedRejectsLengthAndHeaderMismatch) {
  util::Xoshiro256 rng(13);
  const auto params = core::BlockParams::hardware();
  const core::Key key = core::Key::random(rng, 4, params);
  const auto msg = random_message(rng, 50);
  MhheaCipher cipher(key, 0xACE1, params, MhheaCipher::Framing::sealed);
  const auto ct = cipher.encrypt(msg);
  // Caller-declared length must agree with the header.
  EXPECT_THROW((void)cipher.decrypt(ct, msg.size() + 1), std::invalid_argument);
  // A raw (headerless) buffer is not a sealed frame.
  MhheaCipher raw(key, 0xACE1, params);
  const auto raw_ct = raw.encrypt(msg);
  EXPECT_THROW((void)cipher.decrypt(raw_ct, msg.size()), std::invalid_argument);
  // A sealed frame whose params disagree with the cipher's configuration.
  MhheaCipher continuous(key, 0xACE1, core::BlockParams::paper(),
                         MhheaCipher::Framing::sealed);
  const auto other_ct = continuous.encrypt(msg);
  EXPECT_THROW((void)cipher.decrypt(other_ct, msg.size()), std::invalid_argument);
}

}  // namespace
}  // namespace mhhea::crypto
